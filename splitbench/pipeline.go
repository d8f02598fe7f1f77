package main

import (
	"context"
	"fmt"
	"hash/fnv"
	"math"
	"net"
	"time"

	"ensembler/internal/comm"
	"ensembler/internal/ensemble"
	"ensembler/internal/nn"
	"ensembler/internal/rng"
	"ensembler/internal/shard"
	"ensembler/internal/split"
	"ensembler/internal/tensor"
)

// numInputs is the size of the seeded image pool every workload draws its
// requests from. Requests pick images at random from the pool, so the
// references are computed once per pool image and epoch.
const numInputs = 16

// f32Tolerance is the largest absolute logit difference an f32-compute,
// f32-wire response may show against the f64 reference.
const f32Tolerance = 1e-3

// images draws the seeded request pool: numInputs single-image batches of
// the arch's input shape with pixels uniform in [0, 1).
func images(arch split.Arch, seed int64) []*tensor.Tensor {
	r := rng.New(seed)
	out := make([]*tensor.Tensor, numInputs)
	for i := range out {
		out[i] = tensor.New(1, arch.InC, arch.H, arch.W)
		r.FillUniform(out[i].Data, 0, 1)
	}
	return out
}

// references computes Ensembler.Predict for every pool image: what each
// response must reproduce.
func references(e *ensemble.Ensembler, xs []*tensor.Tensor) []*tensor.Tensor {
	out := make([]*tensor.Tensor, len(xs))
	for i, x := range xs {
		out[i] = e.Predict(x)
	}
	return out
}

// exact reports whether got is bit-identical to want.
func exact(got, want *tensor.Tensor) bool {
	if got == nil || len(got.Data) != len(want.Data) {
		return false
	}
	for i, v := range want.Data {
		if math.Float64bits(got.Data[i]) != math.Float64bits(v) {
			return false
		}
	}
	return true
}

// within reports whether got matches want to tol absolute in every logit.
func within(got, want *tensor.Tensor, tol float64) bool {
	if got == nil || len(got.Data) != len(want.Data) {
		return false
	}
	for i, v := range want.Data {
		if !(math.Abs(got.Data[i]-v) <= tol) {
			return false
		}
	}
	return true
}

// logitsHash fingerprints a logits tensor bit-exactly, so a response can be
// checked after the run without retaining it.
func logitsHash(t *tensor.Tensor) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, v := range t.Data {
		u := math.Float64bits(v)
		for i := range b {
			b[i] = byte(u >> (8 * i))
		}
		h.Write(b[:])
	}
	return h.Sum64()
}

// server is one comm.Server listening on a loopback port.
type server struct {
	srv    *comm.Server
	addr   string
	cancel context.CancelFunc
	done   chan error
}

func startServer(p comm.ModelProvider, opts ...comm.ServerOption) (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listening: %w", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &server{srv: comm.NewModelServer(p, opts...), addr: ln.Addr().String(), cancel: cancel, done: make(chan error, 1)}
	go func() { s.done <- s.srv.Serve(ctx, ln) }()
	return s, nil
}

// stop shuts the server down and waits for Serve to return.
func (s *server) stop() error {
	s.cancel()
	return <-s.done
}

// clientTimers time the client half of each request when the run is
// traced; nil timers leave the runtime's functions unwrapped.
type clientTimers struct {
	features, sel, tail recorder
}

// timedTail is a layer that runs the client tail and records its time: the
// comm and shard clients take the tail as a network, so timing it means
// wrapping it in one.
type timedTail struct {
	net *nn.Network
	rec *recorder
}

func (l timedTail) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	start := time.Now()
	y := l.net.Forward(x, train)
	l.rec.add(time.Since(start))
	return y
}

func (l timedTail) Backward(g *tensor.Tensor) *tensor.Tensor { return l.net.Backward(g) }
func (l timedTail) Params() []*nn.Param                      { return l.net.Params() }

func (tm *clientTimers) wrap(features func(*tensor.Tensor) *tensor.Tensor, sel func([]*tensor.Tensor) *tensor.Tensor, tail *nn.Network) (func(*tensor.Tensor) *tensor.Tensor, func([]*tensor.Tensor) *tensor.Tensor, *nn.Network) {
	if tm == nil {
		return features, sel, tail
	}
	return func(x *tensor.Tensor) *tensor.Tensor {
			start := time.Now()
			f := features(x)
			tm.features.add(time.Since(start))
			return f
		}, func(fs []*tensor.Tensor) *tensor.Tensor {
			start := time.Now()
			s := sel(fs)
			tm.sel.add(time.Since(start))
			return s
		}, nn.NewNetwork("timed.tail", timedTail{net: tail, rec: &tm.tail})
}

// wireClient is the comm.Pool configure hook: every pooled connection gets
// its own clone of the pipeline's client half (head, fixed noise, secret
// selector, tail).
func wireClient(e *ensemble.Ensembler, tm *clientTimers) func(*comm.Client) error {
	return func(c *comm.Client) error {
		rt := e.NewClientRuntime()
		c.ComputeFeatures, c.Select, c.Tail = tm.wrap(rt.Features, rt.Select, rt.Tail)
		return nil
	}
}

// fleetRuntime is shard.PipelineRuntime with the client half timed when tm
// is set.
func fleetRuntime(e *ensemble.Ensembler, tm *clientTimers) func() (*shard.Runtime, error) {
	base := shard.PipelineRuntime(e)
	return func() (*shard.Runtime, error) {
		rt, err := base()
		if err != nil {
			return nil, err
		}
		rt.Features, rt.Select, rt.Tail = tm.wrap(rt.Features, rt.Select, rt.Tail)
		return rt, nil
	}
}
