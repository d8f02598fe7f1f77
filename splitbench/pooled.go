package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"time"

	"ensembler/internal/comm"
	"ensembler/internal/data"
	"ensembler/internal/ensemble"
	"ensembler/internal/registry"
	"ensembler/internal/rng"
	"ensembler/internal/tensor"
	"ensembler/internal/trace"
)

// conns is the load generator's connection count in every workload: the
// host's two cores, one per connection.
const conns = 2

// pooledCfg is one registry-backed server with a comm.Pool in front of it —
// the paper_closed and open_f32 deployments.
type pooledCfg struct {
	precision comm.Precision
	wire      comm.WireFormat
	dispatch  bool // continuous-batching dispatcher on, with a bounded intake queue
}

// maxQueue bounds the dispatcher's intake queue in open_f32.
const maxQueue = 32

// pooled is a running pooledCfg deployment.
type pooled struct {
	cfg        pooledCfg
	e          *ensemble.Ensembler
	xs         []*tensor.Tensor
	refs       []*tensor.Tensor
	srv        *server
	pool       *comm.Pool
	tr         *trace.Tracer
	tm         *clientTimers
	roundTrips recorder // comm round trip of every ok request, traced runs only
}

// paperConfig is the paper's operating point: N=10, P=4 over the
// CIFAR-10-like default arch.
func paperConfig(seed int64) ensemble.Config { return ensemble.DefaultConfig(data.CIFAR10Like, seed) }

// startPooled builds the pipeline from the seed, publishes it, starts the
// server and the pool, and returns once every connection has answered one
// checked request. xs and refs are the request pool and its references.
func startPooled(cfg pooledCfg, seed int64, xs, refs []*tensor.Tensor, traced bool) (*pooled, error) {
	p := &pooled{cfg: cfg, xs: xs, refs: refs}
	p.e = ensemble.New(paperConfig(seed))
	reg := registry.New(nil)
	if _, err := reg.Publish("paper", p.e); err != nil {
		return nil, err
	}
	opts := []comm.ServerOption{comm.WithWorkers(2), comm.WithPrecision(cfg.precision)}
	if cfg.dispatch {
		opts = append(opts, comm.WithBatchWindow(0), comm.WithMaxQueue(maxQueue))
	}
	if traced {
		p.tr = trace.New(trace.Config{})
		p.tm = &clientTimers{}
		opts = append(opts, comm.WithTracer(p.tr))
	}
	var err error
	if p.srv, err = startServer(reg, opts...); err != nil {
		return nil, err
	}
	if p.pool, err = comm.NewPool(p.srv.addr, conns, wireClient(p.e, p.tm), comm.WithWire(cfg.wire)); err != nil {
		p.srv.stop()
		return nil, err
	}
	// Sheds must surface as failures, not be retried away inside the pool.
	p.pool.Retry = comm.RetryPolicy{}
	if err := p.warm(); err != nil {
		p.close()
		return nil, err
	}
	return p, nil
}

// warm sends one request per connection, concurrently, and checks each.
func (p *pooled) warm() error {
	errs := make([]error, conns)
	var wg sync.WaitGroup
	for g := range errs {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			logits, _, err := p.pool.Infer(context.Background(), p.xs[g])
			if err == nil && !p.check(logits, g) {
				err = fmt.Errorf("warm-up response %d does not match the reference", g)
			}
			errs[g] = err
		}(g)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// check applies the correctness gate: bit-exact for f64 compute, within
// f32Tolerance of the f64 reference for f32.
func (p *pooled) check(logits *tensor.Tensor, idx int) bool {
	if p.cfg.precision == comm.PrecisionF32 {
		return within(logits, p.refs[idx], f32Tolerance)
	}
	return exact(logits, p.refs[idx])
}

func (p *pooled) close() error {
	p.pool.Close()
	return p.srv.stop()
}

// infer sends one request for pool image idx and books it in t; lat is
// measured from from, the send time in a closed loop and the due time in an
// open one, and at is when that was, from the start of the phase.
func (p *pooled) infer(idx int, from time.Time, at time.Duration, t *tally) {
	t.sent++
	logits, tm, err := p.pool.Infer(context.Background(), p.xs[idx])
	lat := time.Since(from)
	switch {
	case errors.Is(err, comm.ErrOverloaded):
		t.shed++
	case err != nil:
		t.fail(err)
	case !p.check(logits, idx):
		t.wrong++
	default:
		t.okAt(lat, at)
		t.bytes += tm.BytesUp + tm.BytesDown
		if p.tm != nil {
			p.roundTrips.add(tm.RoundTrip)
		}
	}
}

// closedLoop runs the pool's closed loop from host.cores goroutines for d
// of traffic, probing the host every probeEvery.
func (p *pooled) closedLoop(d time.Duration, seed int64, host *hostSpeed) tally {
	t, _ := closedRun(host.cores, d, probeEvery, seed, func(_ int, r *rng.RNG, t *tally, at time.Duration) {
		p.infer(r.Intn(numInputs), time.Now(), at, t)
	}, func(int) error { host.probe(); return nil })
	return t
}

// closedRun runs n goroutines that each call send back to back, with
// their own seeded stream, until d of traffic time has passed. Every tick
// the traffic stops: each goroutine finishes its request in flight, then
// waits while pause(k) runs for the k-th time. Stopped time is not traffic
// time, so it is in no latency and no rate; at, passed to send, is traffic
// time from the start. A pause that fails ends the run.
func closedRun(n int, d, tick time.Duration, seed int64, send func(g int, r *rng.RNG, t *tally, at time.Duration), pause func(k int) error) (tally, error) {
	var gate sync.RWMutex
	var stopped time.Duration // written under the exclusive gate
	halt := false
	t0 := time.Now()
	parts := make([]tally, n)
	var wg sync.WaitGroup
	for g := range parts {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			r := rng.New(seed + int64(g))
			for {
				gate.RLock()
				at := time.Since(t0) - stopped
				if halt || at >= d {
					gate.RUnlock()
					return
				}
				send(g, r, &parts[g], at)
				gate.RUnlock()
			}
		}(g)
	}
	var err error
	for k := 1; err == nil && d-(time.Since(t0)-stopped) >= tick+tick/2; k++ {
		time.Sleep(tick)
		gate.Lock()
		p0 := time.Now()
		if err = pause(k); err != nil {
			halt = true
		}
		stopped += time.Since(p0)
		gate.Unlock()
	}
	wg.Wait()
	var t tally
	for i := range parts {
		t.merge(&parts[i])
	}
	return t, err
}

// openStep is one open-loop phase: arrivals at a fixed Poisson rate.
type openStep struct {
	rate    float64
	t       tally
	lags    durs // generator wake-up minus due time, per arrival
	waits   durs // due time to a sender taking the request, per arrival
	growing bool // the backlog grew over the step
}

// meetsSLO reports whether the step's p99, counting every failed or shed
// request as a miss, is within sloP99 and the backlog did not grow.
func (s *openStep) meetsSLO() bool {
	p99, ok := s.t.lat.quantileWithMisses(0.99, s.t.misses())
	return ok && p99 <= sloP99 && !s.growing
}

// sloP99 is open_f32's latency limit on the 99th percentile.
const sloP99 = 20 * time.Millisecond

// backlogCap bounds the arrivals waiting for a free connection; a full
// backlog stalls the generator, which shows as generator lag.
const backlogCap = 256

type arrival struct {
	due time.Time
	idx int
}

// openLoop offers Poisson arrivals at rate for d over the pool's conns
// connections. Each request's latency runs from its due time, so time spent
// waiting for a connection counts.
func (p *pooled) openLoop(rate float64, d time.Duration, r *rng.RNG) openStep {
	st := openStep{rate: rate}
	q := make(chan arrival, backlogCap)
	parts := make([]tally, conns)
	waits := make([]durs, conns)
	start := time.Now().Add(time.Millisecond)
	var wg sync.WaitGroup
	for g := range parts {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for a := range q {
				waits[g] = append(waits[g], time.Since(a.due))
				p.infer(a.idx, a.due, a.due.Sub(start), &parts[g])
			}
		}(g)
	}
	end := start.Add(d)
	quarter := start.Add(d / 4)
	depthAtQuarter := -1
	for at := start; ; {
		at = at.Add(time.Duration(-math.Log(1-r.Float64()) / rate * float64(time.Second)))
		if !at.Before(end) {
			break
		}
		if w := time.Until(at); w > 0 {
			time.Sleep(w)
		}
		st.lags = append(st.lags, time.Since(at))
		if depthAtQuarter < 0 && at.After(quarter) {
			depthAtQuarter = len(q)
		}
		a := arrival{due: at, idx: r.Intn(numInputs)}
		select {
		case q <- a:
		default:
			st.growing = true
			q <- a
		}
	}
	st.growing = st.growing || len(q) > max(depthAtQuarter, 0)+8
	close(q)
	wg.Wait()
	for g := range parts {
		st.t.merge(&parts[g])
		st.waits = append(st.waits, waits[g]...)
	}
	return st
}
