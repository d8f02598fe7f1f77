package comm

// Privacy-budget enforcement on the serving path. A server constructed with
// WithBudget charges every request's row count to the connection's client
// account (the identity declared in the wire hello, or an address bucket
// for anonymous peers) and applies the guard's verdict: serve clean, serve
// with Gaussian noise on the response features as the budget drains, or
// refuse outright with CodeBudgetExhausted once it is spent. The charge is
// O(1) atomics and the noise is in-place arithmetic over arena tensors, so a
// guarded server keeps the zero-allocation steady state
// (BenchmarkServeRequestLoopLedger pins this).

import (
	"math"
	"net"
	"sync/atomic"

	"ensembler/internal/privacy"
	"ensembler/internal/tensor"
)

// budgetExhaustedMsg is the constant refusal text, mirroring overloadedMsg:
// building it per refusal would allocate exactly when a drained client is
// hammering the server.
const budgetExhaustedMsg = "privacy budget exhausted"

// WithBudget attaches a privacy-budget guard: every served row debits the
// requesting client's Rényi-loss account and the guard's escalation policy
// (noise → rotation → refusal) shapes the response. nil disables budgeting
// at zero hot-path cost.
func WithBudget(g *privacy.Guard) ServerOption {
	return func(o *serverOptions) { o.guard = g }
}

// addrBucket derives the ledger identity of a peer that declared no client
// ID: the host portion of its remote address, so every connection from one
// machine shares one account. The prefix keeps address buckets disjoint
// from declared IDs, which are printable-ASCII and never contain "addr:" by
// way of the colon being legal — so the prefix namespace is enforced, not
// assumed: a declared ID equal to an address bucket string still maps to a
// different account only if it includes the prefix itself, which is fine —
// both spend real budget.
func addrBucket(addr net.Addr) string {
	if addr == nil {
		return "addr:unknown"
	}
	host, _, err := net.SplitHostPort(addr.String())
	if err != nil || host == "" {
		return "addr:" + addr.String()
	}
	return "addr:" + host
}

// noiseSeq seeds each job's private noise generator: a distinct odd seed per
// job, no clock or global RNG on the serving path.
var noiseSeq atomic.Uint64

// xorshift64 advances a job's noise state.
func xorshift64(s *uint64) uint64 {
	x := *s
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	*s = x
	return x
}

// gauss draws one standard normal via Box-Muller over the job's xorshift
// state — scalar math only, nothing escapes.
func gauss(s *uint64) float64 {
	u1 := (float64(xorshift64(s)>>11) + 1) / (1 << 53) // (0,1]: log never sees 0
	u2 := float64(xorshift64(s)>>11) / (1 << 53)
	return math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
}

func noiseData(s *uint64, data []float64, sigma float64) {
	for i := range data {
		data[i] += sigma * gauss(s)
	}
}

func noiseData32(s *uint64, data []float32, sigma float64) {
	for i := range data {
		data[i] += float32(sigma * gauss(s))
	}
}

func noiseTensors(s *uint64, ts []*tensor.Tensor, sigma float64) {
	for _, t := range ts {
		noiseData(s, t.Data, sigma)
	}
}

func noiseTensors32(s *uint64, ts []*tensor.Tensor32, sigma float64) {
	for _, t := range ts {
		noiseData32(s, t.Data, sigma)
	}
}

// noiseResponse perturbs a successful response's payload in place with
// Gaussian noise of the job's verdict sigma — the budget-aware analogue of
// the client's own transmission noise, raising the floor of what a drained
// client's further queries can resolve. The tensors are arena-backed and
// about to be encoded, so in-place addition is safe and allocation-free.
func noiseResponse(j *job, resp *Response) {
	sigma := j.noiseSigma
	if sigma <= 0 {
		return
	}
	if j.rng == 0 {
		j.rng = noiseSeq.Add(1)*0x9E3779B97F4A7C15 | 1
	}
	if j.f32Resp {
		noiseTensors32(&j.rng, j.feats32, sigma)
		for _, row := range j.outputs32 {
			noiseTensors32(&j.rng, row, sigma)
		}
		return
	}
	noiseTensors(&j.rng, resp.Features, sigma)
	for _, row := range resp.Outputs {
		noiseTensors(&j.rng, row, sigma)
	}
}

// chargeJob runs the budget verdict for one job before any compute: a
// refusal fills the job's response (mirroring the dispatcher's shed — fixed
// text, honest code, no allocation) and reports false; otherwise the
// verdict's noise sigma is parked on the job for noiseResponse to apply
// after the forward pass.
func (s *Server) chargeJob(j *job) bool {
	// Fault site: an injected charge failure refuses the request before any
	// compute, like a ledger that cannot render a verdict — fail closed.
	if err := fpBudget.Inject(); err != nil {
		j.resp = Response{Err: err.Error()}
		return false
	}
	g := s.opts.guard
	if g == nil || j.account == nil {
		return true
	}
	_, rows := requestSize(j)
	v := g.Charge(j.account, rows)
	if v.Refuse {
		// Metrics stay honest without special-casing: both serving paths run
		// their usual record() over the refusal response (Err non-empty, so it
		// counts as an error).
		j.resp = Response{Err: budgetExhaustedMsg, Code: CodeBudgetExhausted}
		return false
	}
	j.noiseSigma = v.Sigma
	return true
}
