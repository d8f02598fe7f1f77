package privacy

import (
	"fmt"
	"sync/atomic"
	"time"
)

// Escalation levels a draining account climbs. Levels latch: de-escalation
// requires the remaining budget to rise past the entry threshold plus the
// hysteresis band, so a client sitting exactly on a boundary does not flap
// between treatments (meaningful when RefillPerSec recovers budget; with a
// drain-only ledger levels only ever climb).
const (
	// LevelOK serves normally.
	LevelOK = iota
	// LevelNoise adds Gaussian noise of the policy's base sigma to response
	// features.
	LevelNoise
	// LevelRotate doubles the noise and requests a selector rotation via the
	// RotateFunc plumbing — the drained client has seen enough of this epoch.
	LevelRotate
	// LevelRefused marks an account whose last request was refused outright.
	LevelRefused
)

// PolicyConfig tunes the escalation ladder. The zero value of every field is
// replaced by the documented default.
type PolicyConfig struct {
	// Observe runs the ledger in accounting-only mode: budgets drain and the
	// admin plane reports them, but no request is ever noised, rotated on, or
	// refused. The flag form is -privacy-policy observe.
	Observe bool
	// NoiseSigma is the base standard deviation of the Gaussian noise added
	// to response features at LevelNoise (doubled at LevelRotate). Default
	// 0.05 — the same order as the training-time feature noise.
	NoiseSigma float64
	// NoiseAt is the remaining-budget fraction at or below which noise
	// starts. Default 0.5.
	NoiseAt float64
	// RotateAt is the remaining-budget fraction at or below which a selector
	// rotation is requested. Default 0.2. Must be below NoiseAt.
	RotateAt float64
	// Hysteresis is the extra remaining-budget fraction required to
	// de-escalate a latched level. Default 0.05.
	Hysteresis float64
	// Rotate, when non-nil, is invoked (on its own goroutine, single-flight,
	// rate-limited by MinRotateInterval) when any account first crosses
	// RotateAt — the audit subsystem's RotateFunc plumbing.
	Rotate func(cause string)
	// MinRotateInterval rate-limits budget-driven rotations. Default 1m.
	MinRotateInterval time.Duration
	// Now is the clock (tests); nil uses time.Now.
	Now func() time.Time
}

// Verdict is the guard's decision for one request: refuse it outright, or
// serve it with sigma-scaled Gaussian noise (sigma 0: serve clean).
type Verdict struct {
	Refuse bool
	Sigma  float64
}

// Guard binds a Ledger to an escalation policy. It is what the comm server
// consults on the hot path: Charge is O(1) atomics on the account (the
// policy arithmetic is a handful of integer compares), so a guard-enabled
// server keeps the zero-allocation serving loop.
type Guard struct {
	ledger *Ledger
	cfg    PolicyConfig

	noiseAt  int64 // remaining nano-ε thresholds, precomputed
	rotateAt int64
	hystEps  int64

	lastRotate atomic.Int64
	refused    atomic.Uint64
	noised     atomic.Uint64
	rotations  atomic.Uint64
}

// NewGuard validates cfg, fills defaults, and binds the policy to the
// ledger.
func NewGuard(l *Ledger, cfg PolicyConfig) (*Guard, error) {
	if l == nil {
		return nil, fmt.Errorf("privacy: guard needs a ledger")
	}
	if cfg.NoiseSigma == 0 {
		cfg.NoiseSigma = 0.05
	}
	if cfg.NoiseSigma < 0 {
		return nil, fmt.Errorf("privacy: negative noise sigma %v", cfg.NoiseSigma)
	}
	if cfg.NoiseAt == 0 {
		cfg.NoiseAt = 0.5
	}
	if cfg.RotateAt == 0 {
		cfg.RotateAt = 0.2
	}
	if cfg.Hysteresis == 0 {
		cfg.Hysteresis = 0.05
	}
	if cfg.NoiseAt <= 0 || cfg.NoiseAt >= 1 || cfg.RotateAt <= 0 || cfg.RotateAt >= 1 {
		return nil, fmt.Errorf("privacy: escalation thresholds must sit in (0,1): noise %v, rotate %v", cfg.NoiseAt, cfg.RotateAt)
	}
	if cfg.RotateAt >= cfg.NoiseAt {
		return nil, fmt.Errorf("privacy: rotate threshold %v must fall below noise threshold %v", cfg.RotateAt, cfg.NoiseAt)
	}
	if cfg.Hysteresis < 0 || cfg.Hysteresis >= 1 {
		return nil, fmt.Errorf("privacy: hysteresis %v outside [0,1)", cfg.Hysteresis)
	}
	if cfg.MinRotateInterval == 0 {
		cfg.MinRotateInterval = time.Minute
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	return &Guard{
		ledger:   l,
		cfg:      cfg,
		noiseAt:  int64(cfg.NoiseAt * float64(l.budget)),
		rotateAt: int64(cfg.RotateAt * float64(l.budget)),
		hystEps:  int64(cfg.Hysteresis * float64(l.budget)),
	}, nil
}

// Ledger returns the guard's budget store (the admin plane and auditor read
// it).
func (g *Guard) Ledger() *Ledger { return g.ledger }

// AccountFor resolves the account one connection charges against: the
// client ID declared in the wire hello, or the handler's address bucket for
// anonymous peers.
func (g *Guard) AccountFor(id string) *Account { return g.ledger.AccountFor(id) }

// Charge records rows served rows against the account and returns the
// policy verdict. The hot path is atomics and integer compares only; the
// clock is read only when refill is configured, and allocation happens only
// on the cold rotation edge.
func (g *Guard) Charge(a *Account, rows int) Verdict {
	if rows < 1 {
		rows = 1
	}
	charge := int64(rows) * g.ledger.rowCharge
	if g.cfg.Observe {
		// Accounting-only: debit (rolling back past the budget keeps the
		// drained fraction honest at 1.0, not unbounded) but never act.
		spent, ok := g.ledger.debit(a, charge)
		if !ok {
			a.spent.Store(g.ledger.budget)
			spent = g.ledger.budget
		}
		a.rows.Add(uint64(rows))
		g.ledger.rowsTotal.Add(uint64(rows))
		g.escalate(a, g.ledger.budget-spent)
		return Verdict{}
	}
	spent, ok := g.ledger.debit(a, charge)
	remaining := g.ledger.budget - spent
	if !ok || !g.deRefuse(a, remaining, charge) {
		a.level.Store(LevelRefused)
		a.refusals.Add(1)
		g.refused.Add(1)
		return Verdict{Refuse: true}
	}
	a.rows.Add(uint64(rows))
	g.ledger.rowsTotal.Add(uint64(rows))
	switch g.escalate(a, remaining) {
	case LevelNoise:
		g.noised.Add(1)
		return Verdict{Sigma: g.cfg.NoiseSigma}
	case LevelRotate:
		g.noised.Add(1)
		return Verdict{Sigma: 2 * g.cfg.NoiseSigma}
	}
	return Verdict{}
}

// deRefuse reports whether an account latched at LevelRefused may serve
// again: the refusal level holds until the remaining budget (after this
// request's charge) clears the hysteresis band — without refill that never
// happens once exhausted, which is the honest terminal state.
func (g *Guard) deRefuse(a *Account, remaining, charge int64) bool {
	if a.level.Load() != LevelRefused {
		return true
	}
	if remaining < g.hystEps {
		a.spent.Add(-charge) // roll the tentative debit back; still refused
		return false
	}
	a.level.Store(levelFor(remaining, g.noiseAt, g.rotateAt))
	return true
}

func levelFor(remaining, noiseAt, rotateAt int64) int32 {
	switch {
	case remaining <= rotateAt:
		return LevelRotate
	case remaining <= noiseAt:
		return LevelNoise
	default:
		return LevelOK
	}
}

// escalate moves the account's latched level toward the target for its
// remaining budget: upward immediately (firing the rotation hook on the
// LevelRotate edge), downward only past the hysteresis band.
func (g *Guard) escalate(a *Account, remaining int64) int32 {
	for {
		cur := a.level.Load()
		target := levelFor(remaining, g.noiseAt, g.rotateAt)
		switch {
		case target > cur:
			if !a.level.CompareAndSwap(cur, target) {
				continue
			}
			if target == LevelRotate && cur < LevelRotate {
				g.requestRotate(a)
			}
			return target
		case target < cur:
			// De-escalate one level at a time, each step gated by clearing
			// its entry threshold plus hysteresis.
			gate := g.rotateAt
			if cur == LevelNoise {
				gate = g.noiseAt
			}
			if remaining <= gate+g.hystEps {
				return cur
			}
			if !a.level.CompareAndSwap(cur, cur-1) {
				continue
			}
		default:
			return cur
		}
	}
}

// requestRotate fires the policy's rotation hook once per
// MinRotateInterval, on its own goroutine — rotation walks the registry and
// must never run under the serving path.
func (g *Guard) requestRotate(a *Account) {
	if g.cfg.Rotate == nil {
		return
	}
	now := g.cfg.Now().UnixNano()
	last := g.lastRotate.Load()
	if last != 0 && now-last < g.cfg.MinRotateInterval.Nanoseconds() {
		return
	}
	if !g.lastRotate.CompareAndSwap(last, now) {
		return
	}
	g.rotations.Add(1)
	cause := fmt.Sprintf("privacy budget: client %s drained past the rotation threshold", a.id)
	go g.cfg.Rotate(cause)
}

// Refusals reports how many requests the guard refused.
func (g *Guard) Refusals() uint64 { return g.refused.Load() }

// Noised reports how many requests were served with escalation noise.
func (g *Guard) Noised() uint64 { return g.noised.Load() }

// Rotations reports how many budget-driven rotations the guard requested.
func (g *Guard) Rotations() uint64 { return g.rotations.Load() }

// Observing reports whether the guard runs in accounting-only mode.
func (g *Guard) Observing() bool { return g.cfg.Observe }

// NoiseSigma reports the policy's base escalation noise scale.
func (g *Guard) NoiseSigma() float64 { return g.cfg.NoiseSigma }
