package comm

import (
	"context"
	"fmt"
	"sync"

	"ensembler/internal/tensor"
	"ensembler/internal/trace"
)

// Pool is a fixed-capacity pool of client connections to one server, safe
// for concurrent use. Because a Client's head and tail networks cache
// forward state, the pool cannot share one wired Client across goroutines;
// instead each pooled connection is wired independently by the configure
// hook (typically from ensemble.NewClientRuntime, which clones the
// client-side networks).
type Pool struct {
	addr     string
	dialOpts []DialOption

	// Retry governs how Infer/InferBatch/Exchange respond to a load-shed
	// (ErrOverloaded) response: jittered exponential backoff, bounded
	// attempts (see RetryPolicy). Set before the pool takes traffic;
	// NewPool installs DefaultRetryPolicy, and RetryPolicy{} disables
	// retries entirely.
	Retry RetryPolicy

	mu        sync.Mutex
	configure func(*Client) error
	cfgEpoch  uint64 // bumped by Reconfigure; stale clients are discarded on release
	dialed    int
	size      int
	closed    bool
	idle      chan *Client
	freed     chan struct{} // one token per discarded connection: wakes a waiter to redial
	closing   chan struct{} // closed by Close to wake goroutines waiting in get
}

// NewPool creates a pool of up to size connections to addr. Connections are
// dialed lazily on demand; configure wires each fresh Client (its
// ComputeFeatures, Select, and Tail) before first use. Dial options (e.g.
// WithWire) apply to every connection the pool establishes.
func NewPool(addr string, size int, configure func(*Client) error, opts ...DialOption) (*Pool, error) {
	if size <= 0 {
		return nil, fmt.Errorf("comm: pool size must be positive, got %d", size)
	}
	if configure == nil {
		return nil, fmt.Errorf("comm: pool needs a configure hook to wire clients")
	}
	return &Pool{
		addr:      addr,
		dialOpts:  opts,
		Retry:     DefaultRetryPolicy(),
		configure: configure,
		size:      size,
		idle:      make(chan *Client, size),
		freed:     make(chan struct{}, size),
		closing:   make(chan struct{}),
	}, nil
}

// get acquires a wired client: an idle one if available, a fresh dial while
// under capacity, otherwise it waits for a release — either an idle
// connection coming back or a discarded one freeing dial capacity.
func (p *Pool) get(ctx context.Context) (*Client, error) {
	for {
		select {
		case c := <-p.idle:
			return c, nil
		default:
		}
		p.mu.Lock()
		if p.closed {
			p.mu.Unlock()
			return nil, fmt.Errorf("comm: pool is closed")
		}
		if p.dialed < p.size {
			p.dialed++
			// Capture the configuration under the lock: Reconfigure may swap
			// it while we dial, and a client wired under the old hook must be
			// tagged with the old epoch so put discards it.
			configure, epoch := p.configure, p.cfgEpoch
			p.mu.Unlock()
			c, err := DialContext(ctx, p.addr, p.dialOpts...)
			if err == nil {
				c.cfgEpoch = epoch
				err = configure(c)
				if err != nil {
					c.Close()
				}
			}
			if err != nil {
				p.release()
				return nil, err
			}
			return c, nil
		}
		p.mu.Unlock()
		select {
		case c := <-p.idle:
			return c, nil
		case <-p.freed:
			// A broken connection was discarded; loop back and redial.
		case <-ctx.Done():
			return nil, fmt.Errorf("comm: waiting for pooled connection: %w", ctx.Err())
		case <-p.closing:
			// In-use connections are discarded at release once the pool
			// closes, so no idle send is coming — fail instead of waiting
			// forever.
			return nil, fmt.Errorf("comm: pool is closed")
		}
	}
}

// release gives one unit of dial capacity back and wakes a waiter so it can
// redial; must be called with p.mu unlocked.
func (p *Pool) release() {
	p.mu.Lock()
	p.dialed--
	p.mu.Unlock()
	select {
	case p.freed <- struct{}{}:
	default: // a wake token is already pending for every waiter that needs one
	}
}

// put releases a client back to the pool; broken connections and clients
// wired under a superseded configuration are discarded (freeing dial
// capacity and waking a waiter) so the next get dials a replacement. The
// idle channel's capacity equals the pool size, so the send under the lock
// never blocks.
func (p *Pool) put(c *Client) {
	p.mu.Lock()
	if c.broken || p.closed || c.cfgEpoch != p.cfgEpoch {
		p.mu.Unlock()
		c.Close()
		p.release()
		return
	}
	p.idle <- c
	p.mu.Unlock()
}

// Reconfigure swaps the hook that wires fresh clients and retires every
// existing connection: idle ones are closed immediately, in-use ones are
// discarded as they are released. Callers never observe an interruption —
// subsequent gets dial and wire replacements under the new hook. This is
// the client-side half of a hot swap: after the registry publishes a
// rotated pipeline, Reconfigure points the pool at the new client runtime
// (head, noise, selector, tail) while requests keep flowing.
func (p *Pool) Reconfigure(configure func(*Client) error) {
	if configure == nil {
		return
	}
	p.mu.Lock()
	p.configure = configure
	p.cfgEpoch++
	var stale []*Client
	for {
		select {
		case c := <-p.idle:
			stale = append(stale, c)
			p.dialed--
		default:
			p.mu.Unlock()
			for _, c := range stale {
				c.Close()
				// Wake one waiter per freed slot so callers queued at
				// capacity redial under the new configuration.
				select {
				case p.freed <- struct{}{}:
				default:
				}
			}
			return
		}
	}
}

// Infer runs one single-input round trip on a pooled connection. Benign
// failures (server-side rejections, pre-flight context errors) leave the
// stream synchronized, so the connection returns to the pool; only a
// transport failure discards it. A load-shed response (ErrOverloaded)
// retries under the pool's RetryPolicy before surfacing.
func (p *Pool) Infer(ctx context.Context, x *tensor.Tensor) (*tensor.Tensor, Timing, error) {
	var logits *tensor.Tensor
	var t Timing
	err := p.retryOverload(ctx, func(c *Client) error {
		var opErr error
		logits, t, opErr = c.Infer(ctx, x)
		return opErr
	})
	return logits, t, err
}

// InferBatch runs one batched round trip on a pooled connection, with the
// same benign-vs-transport release policy and overload retries as Infer.
func (p *Pool) InferBatch(ctx context.Context, xs []*tensor.Tensor) ([]*tensor.Tensor, Timing, error) {
	var logits []*tensor.Tensor
	var t Timing
	err := p.retryOverload(ctx, func(c *Client) error {
		var opErr error
		logits, t, opErr = c.InferBatch(ctx, xs)
		return opErr
	})
	return logits, t, err
}

// Exchange runs one raw feature round trip on a pooled connection (see
// Client.Exchange), with the same benign-vs-transport release policy and
// overload retries as Infer.
func (p *Pool) Exchange(ctx context.Context, features *tensor.Tensor) (*Exchanged, Timing, error) {
	var ex *Exchanged
	var t Timing
	err := p.retryOverload(ctx, func(c *Client) error {
		var opErr error
		ex, t, opErr = c.Exchange(ctx, features)
		return opErr
	})
	return ex, t, err
}

// ExchangeTraced is Exchange with a trace context attached to the round
// trip, so the server's leg of the request joins the caller's trace. The
// context is cleared from the pooled client before release — a recycled
// connection must never tag a stranger's request with a stale trace ID.
func (p *Pool) ExchangeTraced(ctx context.Context, features *tensor.Tensor, tc trace.Context) (*Exchanged, Timing, error) {
	var ex *Exchanged
	var t Timing
	err := p.retryOverload(ctx, func(c *Client) error {
		c.Trace = tc
		var opErr error
		ex, t, opErr = c.Exchange(ctx, features)
		c.Trace = trace.Context{}
		return opErr
	})
	return ex, t, err
}

// Close tears down every idle connection and marks the pool closed; in-use
// connections are closed as they are released.
func (p *Pool) Close() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if !p.closed {
		p.closed = true
		close(p.closing)
	}
	for {
		select {
		case c := <-p.idle:
			p.dialed--
			c.Close()
		default:
			return nil
		}
	}
}
