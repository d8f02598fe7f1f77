package comm

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"ensembler/internal/nn"
	"ensembler/internal/privacy"
	"ensembler/internal/tensor"
	"ensembler/internal/trace"
)

// DefaultMaxBatch caps how many inputs one batched request may carry unless
// overridden with WithMaxBatch.
const DefaultMaxBatch = 64

// DefaultDrainTimeout bounds how long a graceful shutdown waits for
// in-flight responses to flush before force-closing connections.
const DefaultDrainTimeout = 5 * time.Second

// ServedModel is one immutable published version of a model, as the server
// sees it. Seq must change whenever the underlying weights or identity
// change (a publish, rotation, or reload): it is the workers' replica cache
// key, so a stale Seq means a worker keeps serving old weights. NewReplica
// must be safe to call concurrently and return bodies no other goroutine
// touches.
type ServedModel interface {
	Name() string
	Version() int
	Seq() uint64
	NewReplica() []*nn.Network
}

// ModelProvider resolves the (model, version) pair a request carries to a
// live model. model "" asks for the provider's default and version 0 for the
// current version — the fallback that keeps header-less (pre-registry)
// clients working. Resolve sits on the hot path: it runs once per request
// and must not block on locks held across slow work.
type ModelProvider interface {
	Resolve(model string, version int) (ServedModel, error)
}

// ServerOption configures a Server at construction time.
type ServerOption func(*serverOptions)

type serverOptions struct {
	workers   int
	maxBatch  int
	drain     time.Duration
	replicate func() []*nn.Network
	metrics   *ServerMetrics  // nil: no telemetry, zero hot-path cost
	observer  FeatureObserver // nil: no feature mirroring, zero hot-path cost
	tracer    *trace.Tracer   // nil: no tracing, zero hot-path cost
	guard     *privacy.Guard  // nil: no budget accounting, zero hot-path cost
	precision Precision       // compute element type; PrecisionF64 is the zero value

	// Continuous batching (see dispatch.go). dispatch gates the whole
	// subsystem: WithBatchWindow or WithMaxQueue turns it on.
	dispatch    bool
	window      time.Duration
	maxQueue    int
	maxCoalesce int
}

// WithWorkers bounds the compute worker pool. For a single-model server
// (NewServer) values above 1 only take effect together with WithReplicas:
// without independent body replicas the layer caches make concurrent passes
// over one body unsafe, so the pool is clamped to a single worker. A
// provider-backed server (NewModelServer) replicates through the provider
// and takes the value as given.
func WithWorkers(n int) ServerOption {
	return func(o *serverOptions) {
		if n > 0 {
			o.workers = n
		}
	}
}

// PinKernelParallelism applies the serving-path parallelism invariant for a
// process about to run a worker pool of the given size: a multi-worker pool
// is the one level of parallelism, so kernel-level goroutines are disabled
// (tensor.SetKernelParallelism(1)) — nesting them under the pool only
// oversubscribes the cores the pool already saturates, the regression
// behind BENCH_2026-07-30's 0.94× concurrent "speedup". A single-worker
// pool leaves the kernels free to parallelize, since they are then the only
// parallelism available. The knob is process-global: serving binaries call
// this once at startup; harnesses that later run training in the same
// process restore with tensor.SetKernelParallelism(0).
func PinKernelParallelism(workers int) {
	if workers > 1 {
		tensor.SetKernelParallelism(1)
	}
}

// WithMaxBatch caps the number of inputs a single batched request may carry.
func WithMaxBatch(n int) ServerOption {
	return func(o *serverOptions) {
		if n > 0 {
			o.maxBatch = n
		}
	}
}

// WithDrainTimeout bounds how long a graceful shutdown waits for in-flight
// responses to flush before force-closing connections (a client that stops
// reading its responses must not be able to hold Serve open forever).
func WithDrainTimeout(d time.Duration) ServerOption {
	return func(o *serverOptions) {
		if d > 0 {
			o.drain = d
		}
	}
}

// WithBatchWindow enables the continuous-batching dispatcher with the given
// batch window: after the dispatcher sees a batch's first request it waits d
// before closing the batch, so requests arriving on other connections within
// the window share one stacked forward pass. Zero keeps the dispatcher (and
// its admission control) but coalesces only what is already queued — no
// added latency. Windows are clamped to one second; a longer window is a
// latency bug, and the graceful-shutdown drain must be able to out-wait it.
func WithBatchWindow(d time.Duration) ServerOption {
	return func(o *serverOptions) {
		if d < 0 {
			d = 0
		}
		if d > maxBatchWindow {
			d = maxBatchWindow
		}
		o.dispatch = true
		o.window = d
	}
}

// WithMaxQueue bounds the continuous-batching intake queue (enabling the
// dispatcher if WithBatchWindow has not): once n requests are queued across
// all connections, admission control sheds — the newest request of the
// longest per-connection queue — with an ErrOverloaded response instead of
// queueing without bound. Defaults to DefaultMaxQueue when the dispatcher is
// on.
func WithMaxQueue(n int) ServerOption {
	return func(o *serverOptions) {
		if n > 0 {
			o.dispatch = true
			o.maxQueue = n
		}
	}
}

// WithMaxCoalesce caps how many queued requests the dispatcher stacks into
// one forward pass. Defaults to the WithMaxBatch cap, keeping a coalesced
// batch no larger than what a single client-batched request may carry.
func WithMaxCoalesce(n int) ServerOption {
	return func(o *serverOptions) {
		if n > 0 {
			o.maxCoalesce = n
		}
	}
}

// WithReplicas supplies a factory producing an independent replica of the N
// hosted bodies (identical weights, private forward caches) for a
// single-model server. Each worker beyond the first owns one replica set,
// which is what lets requests from different connections run truly in
// parallel. Ignored by NewModelServer, whose provider replicates per model.
func WithReplicas(f func() []*nn.Network) ServerOption {
	return func(o *serverOptions) { o.replicate = f }
}

// Server hosts ensemble bodies for remote clients behind a bounded worker
// pool, resolving every request through a ModelProvider. Construct with
// NewServer (fixed bodies) or NewModelServer (registry-backed, hot-swap
// capable), then call Serve; Serve may be called at most once per Server.
type Server struct {
	provider ModelProvider
	opts     serverOptions

	jobs chan *job

	// Continuous batching (nil / nil channel when not enabled): handlers
	// submit decoded jobs to the dispatcher instead of s.jobs, and workers
	// drain coalesced batches from batches alongside direct jobs.
	dispatcher *dispatcher
	batches    chan *dispatchBatch

	mu    sync.Mutex
	conns map[net.Conn]struct{}

	// syncMu guards syncReplicas, the replica cache of the synchronous
	// process entry point (tests and embedding callers); pool workers each
	// own a private cache instead.
	syncMu       sync.Mutex
	syncReplicas *replicaCache
}

// job is one request's full serving context: the decoded request, the reply
// channel the pool answers on, and the request-scoped arena plus reusable
// slice storage that make the steady-state loop allocation-free. A job is
// recycled per connection — the reader draws one from the free list, the
// writer resets and returns it after the response bytes leave the process —
// so at pipelining depth d a connection owns d jobs, total.
type job struct {
	req   Request
	resp  Response
	reply chan *Response

	// arena backs the binary-decoded request tensors and every response
	// tensor; reset by the connection writer once the response is encoded.
	arena tensor.Arena

	feats   []*tensor.Tensor   // reusable Response.Features storage
	inputs  []*tensor.Tensor   // reusable decoded Request.Inputs storage
	outs    []*tensor.Tensor   // reusable per-body output list
	outputs [][]*tensor.Tensor // reusable Response.Outputs grid
	rows    []int              // reusable per-input row counts
	shape   [maxWireRank]int   // scratch for composing output shapes

	// Float32 serving context (see server32.go), populated only on a
	// PrecisionF32 server. arena32 backs f32-decoded request tensors and f32
	// response payloads; f32Resp routes the encoder to feats32/outputs32
	// instead of the float64 Response fields.
	arena32   tensor.Arena32
	feat32    *tensor.Tensor32     // f32-decoded Request.Features
	inputs32  []*tensor.Tensor32   // reusable f32-decoded Request.Inputs storage
	feats32   []*tensor.Tensor32   // reusable f32 response features storage
	outs32    []*tensor.Tensor32   // reusable f32 per-body output list
	outputs32 [][]*tensor.Tensor32 // reusable f32 response outputs grid
	f32Resp   bool

	// Privacy-budget context, populated only when the server has a budget
	// guard. account is the connection's ledger account (resolved once at
	// negotiate time and stamped per request); noiseSigma is this request's
	// escalation-noise verdict; rng is the job's private noise state, seeded
	// lazily and kept across resets so successive noised responses draw a
	// fresh stream.
	account    *privacy.Account
	noiseSigma float64
	rng        uint64

	// Tracing context, populated only when the server has a tracer (see
	// internal/trace). wireTrace is the trace context the request arrived
	// with; traced marks that it arrived on a traced frame whose response
	// must echo the ID. decodeAt/decodeDur are the codec's parse timing,
	// queuedAt the intake hand-off timestamp, and tr the leg's span storage
	// — fixed-size and recycled with the job, so tracing allocates nothing.
	wireTrace trace.Context
	traced    bool
	decodeAt  time.Time
	decodeDur time.Duration
	queuedAt  time.Time
	tr        trace.Active
}

func newJob() *job { return &job{reply: make(chan *Response, 1)} }

// reset reclaims the job for the next request. Must only run after the
// response has been fully encoded: it invalidates every arena tensor.
func (j *job) reset() {
	j.req = Request{}
	j.resp = Response{}
	j.feats = j.feats[:0]
	j.inputs = j.inputs[:0]
	j.outs = j.outs[:0]
	j.outputs = j.outputs[:0]
	j.rows = j.rows[:0]
	j.arena.Reset()
	j.feat32 = nil
	j.inputs32 = j.inputs32[:0]
	j.feats32 = j.feats32[:0]
	j.outs32 = j.outs32[:0]
	j.outputs32 = j.outputs32[:0]
	j.f32Resp = false
	j.arena32.Reset()
	j.account = nil
	j.noiseSigma = 0
	j.wireTrace = trace.Context{}
	j.traced = false
	j.decodeAt, j.queuedAt = time.Time{}, time.Time{}
	j.decodeDur = 0
	j.tr.Reset()
}

// staticModel adapts a fixed body slice to the ModelProvider contract: one
// unnamed model, version 0, epoch never changing. The first replica claim
// hands out the primary bodies (matching the pre-provider behavior where
// worker zero served the bodies the server was constructed with); later
// claims go through the replicate factory.
type staticModel struct {
	bodies    []*nn.Network
	replicate func() []*nn.Network
	claimed   atomic.Bool
}

func (m *staticModel) Resolve(model string, version int) (ServedModel, error) {
	if model != "" {
		return nil, fmt.Errorf("comm: unknown model %q (this server hosts a single unnamed model)", model)
	}
	if version != 0 {
		return nil, fmt.Errorf("comm: version pinning (v%d requested) requires a registry-backed server", version)
	}
	return m, nil
}

func (m *staticModel) Name() string   { return "" }
func (m *staticModel) Version() int   { return 0 }
func (m *staticModel) Seq() uint64    { return 0 }
func (m *staticModel) NumBodies() int { return len(m.bodies) }

func (m *staticModel) NewReplica() []*nn.Network {
	if m.replicate == nil || m.claimed.CompareAndSwap(false, true) {
		// Single-worker servers (replicate == nil clamps the pool to one
		// worker) and the first claimer share the primary bodies.
		return m.bodies
	}
	bodies := m.replicate()
	if len(bodies) != len(m.bodies) {
		panic(fmt.Sprintf("comm: replica factory returned %d bodies, want %d", len(bodies), len(m.bodies)))
	}
	return bodies
}

// NewServer creates a single-model server over the given bodies. Without
// options it behaves like a single-worker pool: one request computes at a
// time, with the per-body passes still fanned out across goroutines.
func NewServer(bodies []*nn.Network, opts ...ServerOption) *Server {
	if len(bodies) == 0 {
		panic("comm: server needs at least one body")
	}
	o := serverOptions{workers: runtime.GOMAXPROCS(0), maxBatch: DefaultMaxBatch, drain: DefaultDrainTimeout}
	for _, opt := range opts {
		opt(&o)
	}
	if o.replicate == nil {
		o.workers = 1
	}
	return newServer(&staticModel{bodies: bodies, replicate: o.replicate}, o)
}

// NewModelServer creates a server that resolves every request's
// (model, version) header through the provider — typically a
// registry.Registry. Publishing a new version or rotating a selector in the
// provider swaps what subsequent requests compute against with zero
// downtime: in-flight requests finish on the epoch they resolved, and each
// worker re-clones its replicas the first time it sees a new epoch.
func NewModelServer(p ModelProvider, opts ...ServerOption) *Server {
	if p == nil {
		panic("comm: server needs a model provider")
	}
	o := serverOptions{workers: runtime.GOMAXPROCS(0), maxBatch: DefaultMaxBatch, drain: DefaultDrainTimeout}
	for _, opt := range opts {
		opt(&o)
	}
	return newServer(p, o)
}

func newServer(p ModelProvider, o serverOptions) *Server {
	s := &Server{
		provider:     p,
		opts:         o,
		jobs:         make(chan *job),
		conns:        map[net.Conn]struct{}{},
		syncReplicas: newReplicaCache(o.precision),
	}
	if o.dispatch {
		if s.opts.maxQueue <= 0 {
			s.opts.maxQueue = DefaultMaxQueue
		}
		if s.opts.maxCoalesce <= 0 || s.opts.maxCoalesce > s.opts.maxBatch {
			s.opts.maxCoalesce = s.opts.maxBatch
		}
		s.dispatcher = newDispatcher(s.opts.window, s.opts.maxQueue, s.opts.maxCoalesce, s.opts.metrics, s.opts.tracer)
		s.batches = make(chan *dispatchBatch)
	}
	return s
}

// Workers reports the effective size of the compute pool.
func (s *Server) Workers() int { return s.opts.workers }

// Serve accepts connections until ctx is cancelled or the listener fails,
// handling each client in its own goroutine. On cancellation it stops
// accepting, lets requests already decoded finish, flushes their responses,
// closes every connection, and returns nil. Clients that stop reading their
// responses are force-closed after the drain timeout (WithDrainTimeout) so
// shutdown always completes.
func (s *Server) Serve(ctx context.Context, ln net.Listener) error {
	stop := make(chan struct{})
	var workers sync.WaitGroup
	for i := 0; i < s.opts.workers; i++ {
		workers.Add(1)
		go func() {
			defer workers.Done()
			s.worker(stop)
		}()
	}
	dispatchStop := make(chan struct{})
	var batcher sync.WaitGroup
	if s.dispatcher != nil {
		batcher.Add(1)
		go func() {
			defer batcher.Done()
			s.dispatcher.run(s.batches, dispatchStop)
		}()
	}

	watchDone := make(chan struct{})
	go func() {
		select {
		case <-ctx.Done():
			ln.Close()
		case <-watchDone:
		}
	}()

	var handlers sync.WaitGroup
	var acceptErr error
	for {
		conn, err := ln.Accept()
		if err != nil {
			acceptErr = err
			break
		}
		// Fault site: an injected accept error drops the fresh connection
		// (the peer sees an immediate close) without poisoning the listener.
		if err := fpAccept.Inject(); err != nil {
			conn.Close()
			continue
		}
		s.track(conn)
		handlers.Add(1)
		go func() {
			defer handlers.Done()
			defer s.untrack(conn)
			s.handle(conn)
		}()
	}
	close(watchDone)

	// Unblock every reader: requests already decoded still reach the pool
	// and their responses still flush, but no new requests are read. If a
	// client refuses to drain its responses, force-close it after the
	// timeout rather than hanging shutdown on its full send buffer.
	s.interruptReads()
	drained := make(chan struct{})
	go func() {
		handlers.Wait()
		close(drained)
	}()
	select {
	case <-drained:
	case <-time.After(s.opts.drain):
		s.forceCloseConns()
		<-drained
	}
	// Handlers have drained: every submitted job was replied, so the
	// dispatcher intake is provably empty and the batcher can stop before
	// the workers it feeds.
	close(dispatchStop)
	batcher.Wait()
	close(stop)
	workers.Wait()

	if ctx.Err() != nil {
		return nil // graceful shutdown
	}
	return acceptErr
}

func (s *Server) track(conn net.Conn) {
	s.mu.Lock()
	s.conns[conn] = struct{}{}
	s.mu.Unlock()
}

func (s *Server) untrack(conn net.Conn) {
	s.mu.Lock()
	delete(s.conns, conn)
	s.mu.Unlock()
}

// interruptReads expires the read deadline on every live connection so
// blocked decoders return; writes are unaffected, letting in-flight replies
// drain.
func (s *Server) interruptReads() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for conn := range s.conns {
		conn.SetReadDeadline(time.Unix(1, 0))
	}
}

// forceCloseConns tears down every connection still open after the drain
// timeout, failing any write its handler is blocked on.
func (s *Server) forceCloseConns() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for conn := range s.conns {
		conn.SetDeadline(time.Unix(1, 0))
		conn.Close()
	}
}

// serverCodec is one connection's wire protocol from the server side.
type serverCodec struct {
	binFramer
	// timing is on when the server has a tracer: readRequest records the
	// parse timestamps the handler turns into decode spans.
	timing bool
	// f32compute marks a PrecisionF32 server: requests decode into the job's
	// f32 arena and successful responses encode from its f32 payload.
	f32compute bool
}

// readRequest decodes the next request into j's recycled storage, recording
// its wire trace context and, with a tracer, its decode timing.
func (c *serverCodec) readRequest(j *job) error {
	if err := fpFrameRead.Inject(); err != nil {
		return err
	}
	body, err := c.readBody()
	if err != nil {
		return err
	}
	var t0 time.Time
	if c.timing {
		t0 = time.Now()
	}
	j.req = Request{}
	if err := parseRequestInto(body, &j.req, j, c.f32compute, &j.wireTrace); err != nil {
		return err
	}
	if c.timing {
		j.decodeAt = t0
		j.decodeDur = time.Since(t0)
	}
	j.traced = j.wireTrace.ID != 0
	return nil
}

// writeResponse encodes one response, echoing j's trace context when the
// request arrived traced. It must not retain resp or its tensors past the
// call (the writer recycles them immediately after).
func (c *serverCodec) writeResponse(j *job, resp *Response) error {
	var echo uint64
	if j.traced {
		echo = j.wireTrace.ID
	}
	buf, err := appendResponse(c.frameStart(), resp, j, c.f32, echo)
	c.encBuf = buf
	if err != nil {
		return err
	}
	if out, ok := fpFrameWrite.Fire(); ok {
		if handled, err := injectFrameWrite(c.w, buf, out); handled {
			return err
		}
	}
	return writeFrame(c.w, buf)
}

// negotiate reads a fresh connection's hello and acks it with the
// continuous-batching window advice. A hello naming another wire version
// still gets the ack, which names this server's version so the client can
// report both, and then the connection drops. The returned clientID is the
// declared identity, "" for anonymous peers (which the budget guard buckets
// by address instead).
func (s *Server) negotiate(conn net.Conn, br *bufio.Reader) (*serverCodec, string, error) {
	if err := fpHello.Inject(); err != nil {
		return nil, "", err
	}
	f32, clientID, err := readHello(br)
	if err != nil && !errors.Is(err, errWireVersion) {
		return nil, "", err
	}
	ack := helloAck(windowAdviceMs(s.opts.window))
	if _, werr := conn.Write(ack[:]); err == nil {
		err = werr
	}
	if err != nil {
		return nil, "", err
	}
	return &serverCodec{
		binFramer:  binFramer{w: conn, r: br, f32: f32},
		timing:     s.opts.tracer != nil,
		f32compute: s.opts.precision == PrecisionF32,
	}, clientID, nil
}

// handle processes one client connection until it closes or the server
// shuts down. Requests pipeline: a reader decodes and submits to the worker
// pool while a writer flushes responses in request order. Jobs (request
// context, arena, reply channel) recycle through the free list, so a
// connection's steady state decodes, computes, and encodes without heap
// allocation.
func (s *Server) handle(conn net.Conn) {
	defer conn.Close()
	br := bufio.NewReaderSize(conn, 1<<16)
	codec, clientID, err := s.negotiate(conn, br)
	if err != nil {
		return
	}

	// Budget identity resolves once per connection: the declared client
	// ID, or the peer's address bucket. Every request on this connection
	// charges the same account.
	var acct *privacy.Account
	if g := s.opts.guard; g != nil {
		id := clientID
		if id == "" {
			id = addrBucket(conn.RemoteAddr())
		}
		acct = g.AccountFor(id)
	}

	// With continuous batching on, this connection owns one dispatcher
	// queue. It unregisters only after the writer has drained every reply
	// (the deferred call runs after writer.Wait()), at which point the queue
	// is empty by construction.
	var cq *connQueue
	if s.dispatcher != nil {
		cq = s.dispatcher.register()
		defer s.dispatcher.unregister(cq)
	}

	// pending preserves request order across the concurrent pool: the writer
	// awaits each job's reply in FIFO order. free returns fully written jobs
	// to the reader.
	pending := make(chan *job, 32)
	free := make(chan *job, 64)
	tr := s.opts.tracer
	var writer sync.WaitGroup
	writer.Add(1)
	go func() {
		defer writer.Done()
		failed := false
		for j := range pending {
			resp := <-j.reply
			if !failed {
				var encStart time.Time
				if tr != nil {
					encStart = time.Now()
				}
				if err := codec.writeResponse(j, resp); err != nil {
					// The client is gone; closing the conn unblocks the
					// reader, and draining keeps submitted jobs from leaking.
					failed = true
					conn.Close()
				} else if tr != nil {
					tr.Span(&j.tr, trace.StageEncode, encStart, time.Since(encStart))
				}
			}
			// The leg ends when its bytes leave (or the client is gone). A
			// shed is not an error here — it retains via its own flag.
			if tr != nil {
				tr.Finish(&j.tr, failed || (resp.Err != "" && resp.Code != CodeOverloaded))
			}
			j.reset()
			select {
			case free <- j:
			default: // reader gone or list full; let the job be collected
			}
		}
	}()

	for {
		var j *job
		select {
		case j = <-free:
		default:
			j = newJob()
		}
		if err := codec.readRequest(j); err != nil {
			break // client closed, protocol error, or shutdown deadline
		}
		j.account = acct
		if tr != nil {
			// The leg starts when the request's bytes were in hand: decode
			// counts against it, the blocking read before it does not.
			tr.BeginAt(&j.tr, j.wireTrace, j.decodeAt)
			if j.decodeDur > 0 {
				tr.Span(&j.tr, trace.StageDecode, j.decodeAt, j.decodeDur)
			}
			j.queuedAt = time.Now()
		}
		pending <- j
		// The pool (and, when batching, the dispatcher) outlives every
		// handler: Serve joins handlers before stopping either, so an
		// unconditional hand-off cannot deadlock and a request that was
		// decoded always gets an answer — computed or honestly shed — even
		// mid-shutdown, honoring the drain guarantee without racing
		// ctx.Done against a free worker.
		if cq != nil {
			s.dispatcher.submit(cq, j)
		} else {
			s.jobs <- j
		}
	}
	close(pending)
	writer.Wait()
}

// maxWorkerReplicas bounds one worker's replica cache. Each live epoch a
// worker serves costs one entry, so the bound is hit only when many models
// (or pinned versions) rotate through a single worker; eviction then retires
// the least-recently-used replica and the next request for it re-clones.
const maxWorkerReplicas = 16

// workerReplica is one worker's private replica of one model epoch, with
// one inference scratch per body: the scratch is as private as the replica
// (one goroutine computes on it at a time) and holds every activation
// buffer a body pass needs, so steady-state requests allocate nothing.
type workerReplica struct {
	seq       uint64
	bodies    []*nn.Network
	scratches []*nn.Scratch
	lastUsed  uint64 // worker-local request counter for LRU eviction

	// Float32 compilation of the same replica, populated on a PrecisionF32
	// server: each cloned body narrowed once to an nn.Net32 with its own f32
	// scratch. The f64 bodies stay alive as the compile source (AdditiveNoise
	// resample mode draws through their worker-private RNG state).
	bodies32    []*nn.Net32
	scratches32 []*nn.Scratch32
}

// epochKey identifies one model epoch in a worker's replica cache. A struct
// key keeps the per-request lookup allocation-free (the old formatted-string
// key cost one heap allocation per request).
type epochKey struct {
	name string
	seq  uint64
}

// replicaCache is one worker's private replicas, keyed by epoch (name, seq)
// so mixed pinned-version and current-version traffic on one model each
// keep their own replica instead of thrashing a shared slot with full
// re-clones per request.
type replicaCache struct {
	entries   map[epochKey]*workerReplica
	tick      uint64
	precision Precision
}

func newReplicaCache(p Precision) *replicaCache {
	return &replicaCache{entries: map[epochKey]*workerReplica{}, precision: p}
}

// replicaFor returns the cached replica for the epoch, cloning (and evicting
// the least recently used entry past the cap) on first sight.
func (rc *replicaCache) replicaFor(m ServedModel) (*workerReplica, error) {
	rc.tick++
	key := epochKey{name: m.Name(), seq: m.Seq()}
	if wr := rc.entries[key]; wr != nil {
		wr.lastUsed = rc.tick
		return wr, nil
	}
	bodies, err := cloneReplica(m)
	if err != nil {
		return nil, err
	}
	scratches := make([]*nn.Scratch, len(bodies))
	for i := range scratches {
		scratches[i] = nn.NewScratch()
	}
	wr := &workerReplica{seq: m.Seq(), bodies: bodies, scratches: scratches, lastUsed: rc.tick}
	if rc.precision == PrecisionF32 {
		wr.bodies32 = make([]*nn.Net32, len(bodies))
		wr.scratches32 = make([]*nn.Scratch32, len(bodies))
		for i, b := range bodies {
			n32, err := nn.CompileF32(b)
			if err != nil {
				return nil, err
			}
			wr.bodies32[i] = n32
			wr.scratches32[i] = nn.NewScratch32()
		}
	}
	rc.entries[key] = wr
	for len(rc.entries) > maxWorkerReplicas {
		var lruKey epochKey
		found, lru := false, uint64(0)
		for k, e := range rc.entries {
			if k != key && (!found || e.lastUsed < lru) {
				lruKey, lru, found = k, e.lastUsed, true
			}
		}
		delete(rc.entries, lruKey)
	}
	return wr, nil
}

// worker serves pool jobs. Each worker owns a private replica cache keyed by
// model epoch: resolving a request whose epoch is not yet cached (a publish,
// rotation, or reload happened) lazily re-clones the bodies. The swap
// therefore costs each worker one clone per epoch change, spread across the
// pool as requests arrive — never a lock shared between workers.
func (s *Server) worker(stop <-chan struct{}) {
	replicas := newReplicaCache(s.opts.precision)
	for {
		select {
		case j := <-s.jobs:
			j.reply <- s.serve(j, replicas)
		case b := <-s.batches: // nil channel (never ready) without a dispatcher
			s.serveBatch(b, replicas)
			s.dispatcher.putBatch(b)
		case <-stop:
			return
		}
	}
}

// serve resolves one request against the provider and runs it over the
// caller's replica cache, feeding the optional telemetry and audit hooks.
// Both hooks cost one nil check when disabled — the serving benchmarks hold
// this path to within measurement noise of the uninstrumented server.
func (s *Server) serve(j *job, replicas *replicaCache) *Response {
	tr := s.opts.tracer
	var start time.Time
	if s.opts.metrics != nil || tr != nil {
		start = time.Now()
	}
	if tr != nil && !j.queuedAt.IsZero() {
		// Intake wait for jobs that reached a worker directly; dispatcher
		// jobs had their queue/batch-window split recorded at pop time.
		tr.Span(&j.tr, trace.StageQueue, j.queuedAt, start.Sub(j.queuedAt))
		j.queuedAt = time.Time{}
	}
	resp := s.serveResolved(j, replicas)
	if s.opts.metrics != nil || tr != nil {
		d := time.Since(start)
		if s.opts.metrics != nil {
			s.opts.metrics.record(j, resp, d)
		}
		tr.Span(&j.tr, trace.StageForward, start, d)
	}
	return resp
}

func (s *Server) serveResolved(j *job, replicas *replicaCache) *Response {
	// The budget verdict comes first: a refused request must not resolve,
	// be observed, or compute — it serves (and therefore leaks) nothing,
	// which is also why the refused charge was rolled back.
	if !s.chargeJob(j) {
		return &j.resp
	}
	m, err := s.provider.Resolve(j.req.Model, j.req.Version)
	if err != nil {
		return &Response{Err: err.Error()}
	}
	if s.opts.observer != nil {
		observeJob(s.opts.observer, m.Name(), m.Version(), j)
	}
	wr, err := replicas.replicaFor(m)
	if err != nil {
		return &Response{Err: err.Error()}
	}
	resp := s.processWith(j, wr)
	resp.Model, resp.Version = m.Name(), m.Version()
	if j.noiseSigma > 0 && resp.Err == "" {
		noiseResponse(j, resp)
	}
	return resp
}

// cloneReplica builds a worker's private replica, converting a panicking
// factory (the historical contract of WithReplicas) into an error response
// so a bad publish degrades to failed requests instead of a dead server.
func cloneReplica(m ServedModel) (bodies []*nn.Network, err error) {
	defer func() {
		if r := recover(); r != nil {
			bodies, err = nil, fmt.Errorf("comm: building model replica: %v", r)
		}
	}()
	bodies = m.NewReplica()
	if len(bodies) == 0 {
		return nil, fmt.Errorf("comm: model %q v%d has no bodies", m.Name(), m.Version())
	}
	return bodies, nil
}

// process runs a request synchronously outside the worker pool — the entry
// point used by tests and by callers that manage their own concurrency. It
// keeps its own replica cache (shared by all process callers, guarded by a
// mutex), so it must not be mixed with concurrent Serve traffic on a
// single-model server without replicas. Each call uses a fresh job, so the
// returned response (unlike a pooled worker's) stays valid indefinitely.
func (s *Server) process(req *Request) *Response {
	s.syncMu.Lock()
	defer s.syncMu.Unlock()
	j := newJob()
	j.req = *req
	return s.serve(j, s.syncReplicas)
}

// processWith validates a request and runs it over one worker replica. A
// panic anywhere in the pass (validation can't anticipate every shape the
// hosted bodies reject) becomes an error response instead of killing the
// server.
func (s *Server) processWith(j *job, wr *workerReplica) (resp *Response) {
	defer func() {
		if r := recover(); r != nil {
			resp = &Response{Err: fmt.Sprintf("comm: request failed: %v", r)}
		}
	}()
	if s.opts.precision == PrecisionF32 {
		return s.processUnguarded32(j, wr)
	}
	return s.processUnguarded(j, wr)
}

func (s *Server) processUnguarded(j *job, wr *workerReplica) *Response {
	req := &j.req
	switch {
	case req.Inputs != nil:
		if len(req.Inputs) == 0 {
			return &Response{Err: "comm: batched request carries no inputs"}
		}
		if len(req.Inputs) > s.opts.maxBatch {
			return &Response{Err: fmt.Sprintf("comm: batch of %d exceeds server cap %d", len(req.Inputs), s.opts.maxBatch)}
		}
		stacked, err := j.stackInputs()
		if err != nil {
			return &Response{Err: err.Error()}
		}
		perBody := s.forwardBodies(&j.outs, wr, stacked)
		// Transpose [body][input] into the wire layout [input][body],
		// copying each part out of its body's scratch into the job arena.
		nb := len(wr.bodies)
		if cap(j.outputs) < len(j.rows) {
			j.outputs = make([][]*tensor.Tensor, len(j.rows))
		}
		j.outputs = j.outputs[:len(j.rows)]
		for i := range j.outputs {
			if cap(j.outputs[i]) < nb {
				j.outputs[i] = make([]*tensor.Tensor, nb)
			}
			j.outputs[i] = j.outputs[i][:nb]
		}
		for b, out := range perBody {
			per := out.Size() / out.Shape[0]
			off := 0
			for i, r := range j.rows {
				shape := append(j.shape[:0], r)
				shape = append(shape, out.Shape[1:]...)
				part := j.arena.NewTensor(shape...)
				copy(part.Data, out.Data[off:off+r*per])
				j.outputs[i][b] = part
				off += r * per
			}
		}
		j.resp = Response{Outputs: j.outputs}
		return &j.resp
	default:
		if err := validateFeatures(req.Features); err != nil {
			return &Response{Err: err.Error()}
		}
		perBody := s.forwardBodies(&j.outs, wr, req.Features)
		feats := j.feats[:0]
		for _, out := range perBody {
			feats = append(feats, j.arena.Clone(out))
		}
		j.feats = feats
		j.resp = Response{Features: feats}
		return &j.resp
	}
}

// stackInputs concatenates the request's inputs along the batch axis into
// the job arena, recording per-input row counts in j.rows — the
// allocation-free form of the package-level stackInputs.
func (j *job) stackInputs() (*tensor.Tensor, error) {
	inputs := j.req.Inputs
	rows := j.rows[:0]
	total := 0
	for i, in := range inputs {
		if err := validateFeatures(in); err != nil {
			return nil, err
		}
		if i > 0 {
			a, b := inputs[0].Shape, in.Shape
			if a[1] != b[1] || a[2] != b[2] || a[3] != b[3] {
				return nil, fmt.Errorf("comm: batched inputs disagree on feature shape: %v vs %v", a[1:], b[1:])
			}
		}
		rows = append(rows, in.Shape[0])
		total += in.Shape[0]
	}
	j.rows = rows
	s := inputs[0].Shape
	out := j.arena.NewTensor(total, s[1], s[2], s[3])
	off := 0
	for _, in := range inputs {
		off += copy(out.Data[off:], in.Data)
	}
	return out, nil
}

// forwardBodies runs every body of the replica over x in inference mode,
// each over its private scratch, returning outputs in body order. Each
// scratch is Reset at the START of its body's pass, never after: the
// results stay valid until the same replica's next request, and a pass
// that panics mid-network (hostile shapes that clear validateFeatures but
// break deeper in) cannot leave un-reset arenas accumulating demand across
// malformed requests — the next request's reset reclaims them.
//
// With a multi-worker pool the bodies run serially — the pool is the one
// level of parallelism, and N workers × serial bodies keeps every core on
// dedicated cache-resident work instead of oversubscribing N×bodies
// goroutines. A single-worker server keeps the historical per-body fan-out
// (it is the only parallelism available), with a panic in any body's
// goroutine re-raised on the calling goroutine for processWith to absorb.
//
// slot supplies (and receives back) the reusable output slice — a job's
// j.outs or a dispatchBatch's b.outs — keeping both callers on the
// zero-allocation steady state.
func (s *Server) forwardBodies(slot *[]*tensor.Tensor, wr *workerReplica, x *tensor.Tensor) []*tensor.Tensor {
	// The serial path must not share a local with the goroutine-spawning
	// branch: a closure-captured slice header is heap-moved on every call,
	// which is exactly the allocation this loop exists to avoid.
	if s.opts.workers > 1 || len(wr.bodies) == 1 {
		outs := (*slot)[:0]
		for i, b := range wr.bodies {
			sc := wr.scratches[i]
			sc.Reset()
			outs = append(outs, b.ForwardInfer(x, sc))
		}
		*slot = outs
		return outs
	}
	return forwardBodiesParallel(slot, wr, x)
}

// forwardBodiesParallel is the single-worker server's per-body fan-out. A
// panic in any body's goroutine is re-raised on the calling goroutine for
// processWith to absorb.
func forwardBodiesParallel(slot *[]*tensor.Tensor, wr *workerReplica, x *tensor.Tensor) []*tensor.Tensor {
	outs := (*slot)[:0]
	for range wr.bodies {
		outs = append(outs, nil)
	}
	*slot = outs
	panics := make(chan any, len(wr.bodies))
	var wg sync.WaitGroup
	for i, b := range wr.bodies {
		wg.Add(1)
		go func(i int, b *nn.Network) {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					panics <- r
				}
			}()
			sc := wr.scratches[i]
			sc.Reset()
			outs[i] = b.ForwardInfer(x, sc)
		}(i, b)
	}
	wg.Wait()
	select {
	case r := <-panics:
		panic(r)
	default:
	}
	return outs
}
