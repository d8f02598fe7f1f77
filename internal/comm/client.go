package comm

import (
	"bufio"
	"context"
	"fmt"
	"net"
	"time"

	"ensembler/internal/faultpoint"
	"ensembler/internal/nn"
	"ensembler/internal/tensor"
	"ensembler/internal/trace"
)

// DialOption configures how a client connection is established.
type DialOption func(*dialOptions)

type dialOptions struct {
	wire      WireFormat
	clientID  string
	faultSite *faultpoint.Site // nil: only the global comm/dial site applies
}

// WithWire selects the client's payload precision: WireBinary (default) or
// WireBinaryF32 for float32 payloads (half the bytes, ~1e-7 relative feature
// rounding).
func WithWire(f WireFormat) DialOption {
	return func(o *dialOptions) { o.wire = f }
}

// WithClientID declares the connection's client identity (1-64 printable
// ASCII bytes) in the wire hello, so a budget-guarded server charges this
// connection's privacy spend to a stable per-client account instead of an
// address bucket. The dial fails if the ID is not wire-valid.
func WithClientID(id string) DialOption {
	return func(o *dialOptions) { o.clientID = id }
}

// Client performs remote ensemble inference: local head+noise, remote
// bodies, local secret selection and tail. A Client is bound to one
// connection and is safe for one goroutine at a time (the head and tail
// networks cache forward state); use a Pool for concurrent callers.
type Client struct {
	conn  *countingConn
	codec *clientCodec
	// broken is set after any transport failure: the wire stream may hold a
	// partial or stale message, so reusing the connection could silently
	// return the previous request's response. A broken client fails fast
	// until redialed.
	broken bool
	// cfgEpoch tags which Pool configuration wired this client; the pool
	// discards clients wired under a superseded configuration on release.
	cfgEpoch uint64
	// servedModel/servedVersion record what the server reports serving on
	// the last successful round trip.
	servedModel   string
	servedVersion int
	// serverWindow is the continuous-batching window the server advertised
	// in its hello ack (zero on servers without a dispatcher). Retry loops
	// use it to floor their backoff: a retry sooner than the window lands in
	// the same congested batch cycle.
	serverWindow time.Duration

	// lastTraceID is the trace ID the server echoed on the last successful
	// round trip (0 when the request was untraced).
	lastTraceID uint64

	// Model and Version route requests on a multi-model server. The zero
	// values ("", 0) mean the server's default model at its current version,
	// and a positive Version pins one published version.
	Model   string
	Version int

	// Trace, when nonzero, rides each request as its wire trace context.
	// The server stitches its leg of the request under the same trace ID —
	// see internal/trace. Like Model and Version, it tags every subsequent
	// request until changed.
	Trace trace.Context

	// ComputeFeatures produces the transmitted features for an image batch
	// (head + noise).
	ComputeFeatures func(x *tensor.Tensor) *tensor.Tensor
	// Select applies the secret selector to the N returned feature
	// matrices, producing the tail input.
	Select func(features []*tensor.Tensor) *tensor.Tensor
	// Tail maps the selected features to logits.
	Tail *nn.Network
}

// Served reports which model and version answered the client's last
// successful request — how a caller observes a zero-downtime hot swap. A
// single-model server reports "" and 0.
func (c *Client) Served() (model string, version int) {
	return c.servedModel, c.servedVersion
}

// Dial connects a client to a comm.Server; pass WithWire to select float32
// payloads.
func Dial(addr string, opts ...DialOption) (*Client, error) {
	return DialContext(context.Background(), addr, opts...)
}

// DialContext connects a client to a comm.Server, honoring the context's
// deadline and cancellation during connection establishment (including the
// wire-codec hello exchange).
func DialContext(ctx context.Context, addr string, opts ...DialOption) (*Client, error) {
	var o dialOptions
	for _, opt := range opts {
		opt(&o)
	}
	if err := fpDial.Inject(); err != nil {
		return nil, fmt.Errorf("comm: dialing %s: %w", addr, err)
	}
	if o.faultSite != nil {
		if err := o.faultSite.Inject(); err != nil {
			return nil, fmt.Errorf("comm: dialing %s: %w", addr, err)
		}
	}
	var d net.Dialer
	conn, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("comm: dialing %s: %w", addr, err)
	}
	return newClientConn(ctx, conn, o)
}

// helloTimeout bounds the wire negotiation when the dialing context carries
// no deadline: the hello is one small local round trip, so a server that
// stays mute for this long is not going to answer requests either — fail
// the dial instead of hanging it.
const helloTimeout = 10 * time.Second

// newClientConn wraps conn in a client, performing the hello under the
// context's deadline (or a default handshake timeout when the context has
// none). conn is closed if the hello fails.
func newClientConn(ctx context.Context, conn net.Conn, o dialOptions) (*Client, error) {
	cc := &countingConn{Conn: conn}
	deadline := time.Now().Add(helloTimeout)
	if d, ok := ctx.Deadline(); ok {
		deadline = d
	}
	cc.SetDeadline(deadline)
	if ctx.Done() != nil {
		// Plain cancellation (no deadline) must also abort a hello blocked
		// on a stalled server — expiring the deadline fails the pending I/O.
		stop := make(chan struct{})
		watcher := make(chan struct{})
		go func() {
			defer close(watcher)
			select {
			case <-ctx.Done():
				cc.SetDeadline(time.Unix(1, 0))
			case <-stop:
			}
		}()
		defer func() {
			close(stop)
			<-watcher
			cc.SetDeadline(time.Time{})
		}()
	} else {
		defer cc.SetDeadline(time.Time{})
	}
	br := bufio.NewReaderSize(cc, 1<<16)
	f32 := o.wire == WireBinaryF32
	window, err := negotiateClient(cc, br, f32, o.clientID)
	if err != nil {
		conn.Close()
		return nil, err
	}
	// The server is untrusted: a hostile ack advertising an absurd window
	// must not stretch retry backoff, so clamp to the ceiling honest
	// servers are themselves held to.
	if window > maxBatchWindow {
		window = maxBatchWindow
	}
	codec := &clientCodec{binFramer{w: cc, r: br, f32: f32}}
	return &Client{conn: cc, codec: codec, serverWindow: window}, nil
}

// LastTraceID reports the trace ID the server echoed on the client's last
// successful round trip — the caller's proof that the server joined its leg
// to the trace. Zero when the request was untraced.
func (c *Client) LastTraceID() uint64 { return c.lastTraceID }

// ServerBatchWindow reports the continuous-batching window the server
// advertised during the wire handshake — zero when the server runs no
// dispatcher. Pool retry backoff is floored by this value.
func (c *Client) ServerBatchWindow() time.Duration { return c.serverWindow }

// NewLocalClient wraps an already-open connection — a net.Pipe in tests, or
// a transport the caller dialed itself — in a client, performing the wire
// hello on it.
func NewLocalClient(conn net.Conn) (*Client, error) {
	return newClientConn(context.Background(), conn, dialOptions{})
}

// Close tears down the connection.
func (c *Client) Close() error { return c.conn.Close() }

// roundTrip performs one encode/decode exchange under ctx: a context
// deadline maps onto the connection deadline and cancellation aborts the
// blocked I/O. Any transport failure — including a context-induced abort —
// leaves the wire stream in an unknown state, so it breaks the client.
func (c *Client) roundTrip(ctx context.Context, req *Request) (*Response, error) {
	if c.broken {
		return nil, fmt.Errorf("comm: connection broken by an earlier failed request; redial")
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("comm: %w", err)
	}
	// The watcher is only needed when the context can actually fire; the
	// common context.Background() path skips the goroutine entirely.
	if ctx.Done() != nil {
		if d, ok := ctx.Deadline(); ok {
			c.conn.SetDeadline(d)
		}
		stop := make(chan struct{})
		watcher := make(chan struct{})
		go func() {
			defer close(watcher)
			select {
			case <-ctx.Done():
				// Expiring the deadline fails the pending read/write.
				c.conn.SetDeadline(time.Unix(1, 0))
			case <-stop:
			}
		}()
		// Join the watcher before clearing the deadline: a cancellation
		// racing the return would otherwise leave an expired deadline
		// behind on a connection whose round trip succeeded.
		defer func() {
			close(stop)
			<-watcher
			c.conn.SetDeadline(time.Time{})
		}()
	}
	if err := c.codec.writeRequest(req, c.Trace); err != nil {
		return nil, c.fail(ctx, fmt.Errorf("comm: sending features: %w", err))
	}
	var resp Response
	echo, err := c.codec.readResponse(&resp)
	if err != nil {
		return nil, c.fail(ctx, fmt.Errorf("comm: receiving features: %w", err))
	}
	c.lastTraceID = echo
	// A server-reported error leaves the stream synchronized; the
	// connection stays usable. A load-shed verdict surfaces as
	// ErrOverloaded so callers (and Pool's retry loop) can distinguish
	// "back off and retry" from a terminal request failure; a privacy-budget
	// refusal surfaces as ErrBudgetExhausted, which retries must NOT chase —
	// the budget does not come back by asking again.
	if resp.Err != "" {
		switch resp.Code {
		case CodeOverloaded:
			return nil, fmt.Errorf("comm: %w: %s", ErrOverloaded, resp.Err)
		case CodeBudgetExhausted:
			return nil, fmt.Errorf("comm: %w: %s", ErrBudgetExhausted, resp.Err)
		}
		return nil, fmt.Errorf("comm: server error: %s", resp.Err)
	}
	c.servedModel, c.servedVersion = resp.Model, resp.Version
	return &resp, nil
}

// fail marks the connection unusable after a transport error — the stream
// may hold a stale response that a later request would otherwise consume as
// its own — and prefers the context's verdict when the failure was induced
// by cancellation or deadline expiry.
func (c *Client) fail(ctx context.Context, err error) error {
	c.broken = true
	c.conn.Close()
	if ctx.Err() != nil {
		return fmt.Errorf("comm: %w", ctx.Err())
	}
	return err
}

// Infer runs the full collaborative pipeline for an image batch and returns
// logits plus the measured timing breakdown.
func (c *Client) Infer(ctx context.Context, x *tensor.Tensor) (*tensor.Tensor, Timing, error) {
	var t Timing
	upBefore, downBefore := c.conn.up, c.conn.down

	start := time.Now()
	features := c.ComputeFeatures(x)
	t.Client += time.Since(start)

	netStart := time.Now()
	resp, err := c.roundTrip(ctx, &Request{Model: c.Model, Version: c.Version, Features: features})
	t.RoundTrip = time.Since(netStart)
	if err != nil {
		return nil, t, err
	}

	start = time.Now()
	logits, err := c.finish(resp.Features)
	t.Client += time.Since(start)
	if err != nil {
		return nil, t, err
	}
	t.BytesUp = c.conn.up - upBefore
	t.BytesDown = c.conn.down - downBefore
	return logits, t, nil
}

// finish runs the client-side selection and tail over one response's
// feature list. The server is the adversary of the threat model, so its
// response is as untrusted as a request is to the server: tensors are
// structurally validated, and a panic in Select/Tail (e.g. a response
// carrying the wrong number of bodies for the selector) becomes an error
// instead of crashing the client application.
func (c *Client) finish(features []*tensor.Tensor) (logits *tensor.Tensor, err error) {
	for i, f := range features {
		if err := validateTensor(f); err != nil {
			return nil, fmt.Errorf("comm: server response tensor %d: %w", i, err)
		}
	}
	defer func() {
		if r := recover(); r != nil {
			logits, err = nil, fmt.Errorf("comm: server response rejected: %v", r)
		}
	}()
	return c.Tail.Forward(c.Select(features), false), nil
}

// Exchanged is one raw feature round trip's result: the per-body feature
// list plus which model epoch actually served it. The epoch matters to
// sharded callers: a scatter-gather across K servers must reject a gather
// whose shards answered from different versions (a fleet mid-reload), or
// it would silently mix body weights from two pipelines into one result.
type Exchanged struct {
	Features []*tensor.Tensor
	Model    string
	Version  int
}

// Exchange performs the raw feature round trip beneath Infer: it transmits
// already-computed features and returns the per-body feature list the server
// answered with, structurally validated but unselected. This is the
// primitive a sharded deployment builds on — the scatter-gather client
// computes the head output once, Exchanges it with every shard, and applies
// the secret selector over the reassembled body order itself, so no single
// connection ever carries enough context to see the selection.
func (c *Client) Exchange(ctx context.Context, features *tensor.Tensor) (*Exchanged, Timing, error) {
	var t Timing
	upBefore, downBefore := c.conn.up, c.conn.down
	netStart := time.Now()
	resp, err := c.roundTrip(ctx, &Request{Model: c.Model, Version: c.Version, Features: features})
	t.RoundTrip = time.Since(netStart)
	if err != nil {
		return nil, t, err
	}
	for i, f := range resp.Features {
		if err := validateTensor(f); err != nil {
			return nil, t, fmt.Errorf("comm: server response tensor %d: %w", i, err)
		}
	}
	t.BytesUp = c.conn.up - upBefore
	t.BytesDown = c.conn.down - downBefore
	return &Exchanged{Features: resp.Features, Model: resp.Model, Version: resp.Version}, t, nil
}

// InferBatch runs the collaborative pipeline for B image batches in a single
// round trip and returns one logits tensor per input. The server stacks the
// transmitted features, runs each body once over the stack, and splits the
// results back — amortizing both the protocol overhead and the per-body
// dispatch across the whole batch.
func (c *Client) InferBatch(ctx context.Context, xs []*tensor.Tensor) ([]*tensor.Tensor, Timing, error) {
	var t Timing
	if len(xs) == 0 {
		return nil, t, fmt.Errorf("comm: empty inference batch")
	}
	upBefore, downBefore := c.conn.up, c.conn.down

	start := time.Now()
	inputs := make([]*tensor.Tensor, len(xs))
	for i, x := range xs {
		inputs[i] = c.ComputeFeatures(x)
	}
	t.Client += time.Since(start)

	netStart := time.Now()
	resp, err := c.roundTrip(ctx, &Request{Model: c.Model, Version: c.Version, Inputs: inputs})
	t.RoundTrip = time.Since(netStart)
	if err != nil {
		return nil, t, err
	}
	if len(resp.Outputs) != len(xs) {
		return nil, t, fmt.Errorf("comm: server returned %d outputs for %d inputs", len(resp.Outputs), len(xs))
	}

	start = time.Now()
	logits := make([]*tensor.Tensor, len(xs))
	for i, features := range resp.Outputs {
		out, err := c.finish(features)
		if err != nil {
			t.Client += time.Since(start)
			return nil, t, fmt.Errorf("comm: output %d: %w", i, err)
		}
		logits[i] = out
	}
	t.Client += time.Since(start)
	t.BytesUp = c.conn.up - upBefore
	t.BytesDown = c.conn.down - downBefore
	return logits, t, nil
}
