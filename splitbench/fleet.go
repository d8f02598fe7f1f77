package main

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ensembler/internal/comm"
	"ensembler/internal/commtest"
	"ensembler/internal/ensemble"
	"ensembler/internal/privacy"
	"ensembler/internal/registry"
	"ensembler/internal/rng"
	"ensembler/internal/shard"
	"ensembler/internal/tensor"
	"ensembler/internal/trace"
)

const (
	fleetShards   = 3
	rotateEvery   = 500 * time.Millisecond
	fleetModel    = "fleet"
	mixedEpochErr = "mixed epochs"
)

// fleetConfig is fleet_rotating's pipeline: N=4, P=2 over the default arch.
func fleetConfig(seed int64) ensemble.Config {
	cfg := paperConfig(seed)
	cfg.N, cfg.P = 4, 2
	return cfg
}

// fleet is a running fleet_rotating deployment: three shard servers over
// one registry, each charging an observe-mode privacy guard, and a
// scatter-gather client.
type fleet struct {
	seed   int64
	xs     []*tensor.Tensor
	reg    *registry.Registry
	f      *commtest.Fleet
	client *shard.Client
	ledger *privacy.Ledger
	tr     *trace.Tracer
	tm     *clientTimers

	// base is the pipeline of epoch 0 and selections the secret selection
	// of every epoch, oldest first; only the rotating goroutine touches
	// them. The benchmark keeps no later pipeline, so its own memory stays
	// out of heap_peak_mb; the check re-derives them after the run.
	base       *ensemble.Ensembler
	selections [][]int

	// epoch is the current epoch's index. Rotations run while the closed
	// loop's traffic is stopped, so every request is served wholly by the
	// one epoch that was current while it ran: a request in flight across a
	// rotation would be refused by the gather as "mixed epochs", a failure
	// whose count depends on thread timing.
	epoch int

	// firstAfter is set by each rotation and taken by the first request to
	// start after it.
	firstAfter atomic.Bool
}

// served is one ok fleet response, checked against the references after
// the run so the rotator pays no reference work while traffic is measured.
type served struct {
	idx, epoch int
	hash       uint64
}

func startFleet(seed int64, xs []*tensor.Tensor, traced bool) (*fleet, error) {
	fl := &fleet{seed: seed, xs: xs, reg: registry.New(nil)}
	e := ensemble.New(fleetConfig(seed))
	fl.base = e
	fl.selections = [][]int{e.Selector.Indices}
	if _, err := fl.reg.Publish(fleetModel, e); err != nil {
		return nil, err
	}
	var err error
	if fl.ledger, err = privacy.NewLedger(privacy.LedgerConfig{BudgetEps: 1e6}); err != nil {
		return nil, err
	}
	guard, err := privacy.NewGuard(fl.ledger, privacy.PolicyConfig{Observe: true})
	if err != nil {
		return nil, err
	}
	opts := []comm.ServerOption{comm.WithBudget(guard)}
	if traced {
		fl.tr = trace.New(trace.Config{})
		fl.tm = &clientTimers{}
		opts = append(opts, comm.WithTracer(fl.tr))
	}
	if fl.f, err = commtest.StartShardServers(fl.reg, e, fleetShards, opts...); err != nil {
		return nil, err
	}
	cfg := fl.f.ClientConfig()
	cfg.NewRuntime = fleetRuntime(e, fl.tm)
	cfg.PoolSize = conns
	if fl.client, err = shard.NewClient(cfg); err != nil {
		fl.stopShards()
		return nil, err
	}
	if err := fl.warm(); err != nil {
		fl.close()
		return nil, err
	}
	return fl, nil
}

// warm sends one request per goroutine, concurrently, and checks each.
func (fl *fleet) warm() error {
	ref := references(fl.base, fl.xs[:conns])
	errs := make([]error, conns)
	var wg sync.WaitGroup
	for g := range errs {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			logits, _, err := fl.client.Infer(context.Background(), fl.xs[g])
			if err == nil && !exact(logits, ref[g]) {
				err = fmt.Errorf("warm-up response %d does not match the reference", g)
			}
			errs[g] = err
		}(g)
	}
	wg.Wait()
	return errors.Join(errs...)
}

func (fl *fleet) stopShards() error {
	var errs []error
	for i := range fl.f.Addrs {
		errs = append(errs, fl.f.StopShard(i))
	}
	return errors.Join(errs...)
}

func (fl *fleet) close() error {
	fl.client.Close()
	return fl.stopShards()
}

// rotation is one timed selector rotation.
type rotation struct {
	registry, client time.Duration
}

// rotateOptions seeds rotation k, so the check can replay the rotations.
func (fl *fleet) rotateOptions(k int) ensemble.RotateOptions {
	return ensemble.RotateOptions{Seed: fl.seed*1000 + int64(k)}
}

// rotate publishes a fresh secret selection and re-wires the client to it.
func (fl *fleet) rotate(k int) (rotation, error) {
	start := time.Now()
	ep, err := fl.reg.RotateSelector(fleetModel, fl.rotateOptions(k))
	if err != nil {
		return rotation{}, err
	}
	published := time.Now()
	fl.client.RotateTo(ep.Pipeline())
	done := time.Now()
	fl.selections = append(fl.selections, ep.Pipeline().Selector.Indices)
	fl.epoch = len(fl.selections) - 1
	fl.firstAfter.Store(true)
	return rotation{registry: published.Sub(start), client: done.Sub(published)}, nil
}

// fleetRun is what one measured fleet phase produced.
type fleetRun struct {
	t          tally
	rotations  []rotation
	firstAfter durs // latency of the first request after each rotation
	scatter    durs // scatter-gather round trip of every ok request, traced runs only
}

// closedLoop drives the fleet for d of traffic while the selector is
// rotated every rotateEvery and the host probed every other rotation, both
// with the traffic stopped. Mixed-epoch gather refusals, which stopping the
// traffic should rule out, count as failures; nothing is retried.
func (fl *fleet) closedLoop(d time.Duration, seed int64, host *hostSpeed) (fleetRun, error) {
	var run fleetRun
	logs := make([][]served, conns)
	scatters := make([]durs, conns)
	firsts := make([]durs, conns)
	t, err := closedRun(host.cores, d, rotateEvery, seed, func(g int, r *rng.RNG, t *tally, at time.Duration) {
		idx := r.Intn(numInputs)
		first := fl.firstAfter.CompareAndSwap(true, false)
		start := time.Now()
		t.sent++
		logits, tm, err := fl.client.Infer(context.Background(), fl.xs[idx])
		lat := time.Since(start)
		switch {
		case err != nil && strings.Contains(err.Error(), mixedEpochErr):
			t.mixed++
			t.fail(err)
		case err != nil:
			t.fail(err)
		default:
			t.okAt(lat, at)
			logs[g] = append(logs[g], served{idx: idx, epoch: fl.epoch, hash: logitsHash(logits)})
			t.bytes += tm.BytesUp + tm.BytesDown
			if fl.tm != nil {
				scatters[g] = append(scatters[g], tm.RoundTrip)
			}
		}
		if first {
			firsts[g] = append(firsts[g], lat)
		}
	}, func(k int) error {
		rot, err := fl.rotate(k)
		if err != nil {
			return fmt.Errorf("rotating the selector: %w", err)
		}
		run.rotations = append(run.rotations, rot)
		if k%2 == 0 {
			host.probe()
		}
		return nil
	})
	run.t = t
	for g := range scatters {
		run.scatter = append(run.scatter, scatters[g]...)
		run.firstAfter = append(run.firstAfter, firsts[g]...)
	}
	if err != nil {
		return run, err
	}
	// A response is right if it is bit-exact to Ensembler.Predict of the
	// epoch that served it; otherwise it is an admitted wrong answer and
	// moves from ok to wrong.
	wrong, err := fl.check(logs)
	run.t.ok -= wrong
	run.t.wrong += wrong
	return run, err
}

// check counts the responses that are not bit-exact to Ensembler.Predict of
// the epoch that served them: admitted wrong answers. It replays the
// rotations from the base pipeline, which must reproduce every published
// selection.
func (fl *fleet) check(logs [][]served) (wrong int64, err error) {
	need := make([]map[int]uint64, len(fl.selections))
	for _, log := range logs {
		for _, s := range log {
			if need[s.epoch] == nil {
				need[s.epoch] = map[int]uint64{}
			}
			need[s.epoch][s.idx] = 0
		}
	}
	e := fl.base
	for k := range need {
		if k > 0 {
			if e, err = e.Rotate(fl.rotateOptions(k)); err != nil {
				return 0, fmt.Errorf("replaying rotation %d: %w", k, err)
			}
		}
		if !slices.Equal(e.Selector.Indices, fl.selections[k]) {
			return 0, fmt.Errorf("replaying rotation %d drew selection %v, the registry published %v", k, e.Selector.Indices, fl.selections[k])
		}
		for idx := range need[k] {
			need[k][idx] = logitsHash(e.Predict(fl.xs[idx]))
		}
	}
	for _, log := range logs {
		for _, s := range log {
			if need[s.epoch][s.idx] != s.hash {
				wrong++
			}
		}
	}
	return wrong, nil
}

// health sums the shard client's per-shard counters.
func (fl *fleet) health() (h shard.Health) {
	for _, s := range fl.client.Health() {
		h.Requests += s.Requests
		h.Failures += s.Failures
		h.ShortCircuits += s.ShortCircuits
	}
	return h
}
