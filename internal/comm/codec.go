package comm

// The wire codec: one length-prefixed binary protocol for every connection.
// Each request writes one header and the raw payload, the encode/decode
// buffers are reused across requests, and a client may ship float32 on the
// wire (half the bytes, ~1e-7 relative feature error — see README).
//
// Framing (all integers little-endian):
//
//	hello     = magic[4] version(u8) flags(u8) idLen(u8) id[idLen]   client→server
//	hello-ack = magic[4] version(u8) windowMs(u16)                   server→client
//	frame     = length(u32) body
//	request   = 0x01 modelLen(u16) model version(u32) kind(u8) count(u16) tensor*
//	          | 0x03 traceID(u64) tflags(u8) modelLen(u16) model ...
//	response  = 0x02 modelLen(u16) model version(u32) errLen(u16) err code(u16) kind(u8)
//	            features: count(u16) tensor*
//	            outputs:  outer(u16) inner(u16) tensor*(outer×inner, row-major)
//	          | 0x04 traceID(u64) modelLen(u16) model ...
//	tensor    = rank(u8) dtype(u8) dims(u32)*rank payload(f64|f32 ×n)
//
// The hello names exactly one protocol version; a server refuses any other,
// acking with its own version so the client can report both before the
// connection drops. flags bit0 asks for float32 payloads in both directions.
// idLen > 0 declares the client's identity (1–64 printable-ASCII bytes) for
// the per-client privacy-budget ledger; peers that declare none are bucketed
// by remote address. The ack's windowMs is the server's continuous-batching
// window, advice a client's overload backoff keys off (0 = no window).
//
// The code field classifies a response error (ErrOverloaded, the budget
// refusal). Traced frames 0x03/0x04 carry a trace context (u64 trace ID; on
// requests also a flags byte whose bit0 forces tail-sampling retention
// downstream) between the message byte and the model name, which is how one
// logical request's legs stitch into a single trace across connections and
// shards (see internal/trace). A client sends 0x03 only when it has a trace
// context, and the server echoes 0x04 only on a request that arrived as 0x03,
// so untraced requests use the shorter 0x01/0x02 frames.
//
// Trust boundary: decoders validate every length against the remaining
// frame before allocating, so a hostile frame claiming 2^30 elements over a
// short body is rejected, not allocated. The fuzz targets in fuzz_test.go run
// random bytes through every parser.

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"
	"time"

	"ensembler/internal/tensor"
	"ensembler/internal/trace"
)

// WireFormat selects the payload precision a client puts on the wire.
type WireFormat int

const (
	// WireBinary ships float64 payloads, bit-transparent. The default for
	// Dial.
	WireBinary WireFormat = iota
	// WireBinaryF32 ships float32 payloads: half the bytes, ~1e-7 relative
	// rounding on transmitted features (see README for the accuracy
	// trade-off).
	WireBinaryF32
)

func (f WireFormat) String() string {
	switch f {
	case WireBinary:
		return "binary"
	case WireBinaryF32:
		return "binary+f32"
	default:
		return fmt.Sprintf("WireFormat(%d)", int(f))
	}
}

const (
	wireVersion = 5
	wireFlagF32 = 0x01

	wireMsgRequest  = 0x01
	wireMsgResponse = 0x02
	// Traced variants: the body carries a trace context between the message
	// byte and the model name.
	wireMsgRequestTraced  = 0x03
	wireMsgResponseTraced = 0x04

	// wireTraceSampled in a traced request's flags byte forces tail-sampling
	// retention of this leg (the root leg won the coin, or was an error).
	wireTraceSampled = 0x01

	wireKindFeatures = 0x00
	wireKindBatched  = 0x01

	wireDtypeF64 = 0x00
	wireDtypeF32 = 0x01

	// maxWireFrame bounds one frame; larger requests must batch across
	// frames. 256 MiB comfortably holds the largest supported batch.
	maxWireFrame = 1 << 28
	maxWireModel = 4096
	maxWireRank  = 8
	// maxWireClientID bounds a declared client identity; long enough for a
	// UUID or a hostname, short enough that a ledger full of hostile IDs
	// stays small.
	maxWireClientID = 64
)

// wireMagic opens the hello and hello-ack.
var wireMagic = [4]byte{0xE5, 'N', 'S', 'B'}

// errWireVersion marks a hello or ack naming a protocol version other than
// wireVersion.
var errWireVersion = errors.New("comm: wire version mismatch")

// --- handshake ---

// ValidClientID reports whether id may be declared on the wire: 1 to 64
// bytes of printable ASCII (no spaces or control bytes), so a hostile
// identity cannot smuggle log-injection or NUL tricks into the ledger, the
// admin JSON, or rotation causes.
func ValidClientID(id string) bool {
	if len(id) == 0 || len(id) > maxWireClientID {
		return false
	}
	for i := 0; i < len(id); i++ {
		if id[i] < 0x21 || id[i] > 0x7E {
			return false
		}
	}
	return true
}

// appendHello encodes the client hello. clientID must be "" or satisfy
// ValidClientID.
func appendHello(buf []byte, f32 bool, clientID string) []byte {
	var flags byte
	if f32 {
		flags |= wireFlagF32
	}
	buf = append(buf, wireMagic[:]...)
	buf = append(buf, wireVersion, flags, byte(len(clientID)))
	return append(buf, clientID...)
}

// readHello reads and validates a client hello: the server's first trust
// boundary. A wrong version returns an error wrapping errWireVersion before
// any byte past the fixed header is read.
func readHello(r io.Reader) (f32 bool, clientID string, err error) {
	var h [7]byte
	if _, err := io.ReadFull(r, h[:]); err != nil {
		return false, "", err
	}
	if [4]byte(h[:4]) != wireMagic {
		return false, "", fmt.Errorf("comm: peer is not speaking the wire protocol (bad hello magic)")
	}
	if h[4] != wireVersion {
		return false, "", fmt.Errorf("%w: client speaks version %d, server speaks version %d", errWireVersion, h[4], wireVersion)
	}
	if h[5]&^wireFlagF32 != 0 {
		return false, "", fmt.Errorf("comm: hello carries unknown flags %#x", h[5]&^wireFlagF32)
	}
	if n := int(h[6]); n > 0 {
		if n > maxWireClientID {
			return false, "", fmt.Errorf("comm: client ID of %d bytes exceeds %d", n, maxWireClientID)
		}
		var id [maxWireClientID]byte
		if _, err := io.ReadFull(r, id[:n]); err != nil {
			return false, "", fmt.Errorf("comm: reading client ID: %w", err)
		}
		if clientID = string(id[:n]); !ValidClientID(clientID) {
			return false, "", fmt.Errorf("comm: client ID carries non-printable bytes")
		}
	}
	return h[5]&wireFlagF32 != 0, clientID, nil
}

// helloAck builds the server's ack, naming wireVersion and carrying the
// batching window advice (milliseconds, saturated at u16).
func helloAck(windowMs uint16) [7]byte {
	ack := [7]byte{wireMagic[0], wireMagic[1], wireMagic[2], wireMagic[3], wireVersion}
	binary.LittleEndian.PutUint16(ack[5:], windowMs)
	return ack
}

// windowAdviceMs converts a batch window to its wire form: whole
// milliseconds, saturated at the u16 ceiling, with sub-millisecond windows
// rounded up so a nonzero window is never advertised as "no batching".
func windowAdviceMs(window time.Duration) uint16 {
	if window <= 0 {
		return 0
	}
	ms := (window + time.Millisecond - 1) / time.Millisecond
	if ms > math.MaxUint16 {
		return math.MaxUint16
	}
	return uint16(ms)
}

// negotiateClient performs the hello exchange on a fresh connection and
// returns the server's advertised continuous-batching window (0 when the
// server does not batch across connections).
func negotiateClient(conn io.Writer, r *bufio.Reader, f32 bool, clientID string) (time.Duration, error) {
	if clientID != "" && !ValidClientID(clientID) {
		return 0, fmt.Errorf("comm: client ID %q is not 1-%d printable ASCII bytes", clientID, maxWireClientID)
	}
	if _, err := conn.Write(appendHello(nil, f32, clientID)); err != nil {
		return 0, fmt.Errorf("comm: sending wire hello: %w", err)
	}
	var ack [7]byte
	if _, err := io.ReadFull(r, ack[:]); err != nil {
		return 0, fmt.Errorf("comm: reading wire hello ack: %w", err)
	}
	if [4]byte(ack[:4]) != wireMagic {
		return 0, fmt.Errorf("comm: server is not speaking the wire protocol (bad ack magic)")
	}
	if ack[4] != wireVersion {
		return 0, fmt.Errorf("%w: server speaks version %d, client speaks version %d", errWireVersion, ack[4], wireVersion)
	}
	return time.Duration(binary.LittleEndian.Uint16(ack[5:])) * time.Millisecond, nil
}

// --- encoding ---

// appendTensor encodes one tensor of either precision. A float32 tensor on
// the f64 wire widens exactly; a float64 tensor on the f32 wire rounds once.
func appendTensor[T float32 | float64](buf []byte, shape []int, data []T, f32 bool) []byte {
	buf = append(buf, byte(len(shape)))
	if f32 {
		buf = append(buf, wireDtypeF32)
	} else {
		buf = append(buf, wireDtypeF64)
	}
	for _, d := range shape {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(d))
	}
	if f32 {
		for _, v := range data {
			buf = binary.LittleEndian.AppendUint32(buf, math.Float32bits(float32(v)))
		}
	} else {
		for _, v := range data {
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(float64(v)))
		}
	}
	return buf
}

// appendRequest encodes a request body (no length prefix). A nonzero trace
// context selects the traced layout (0x03).
func appendRequest(buf []byte, req *Request, f32 bool, tc trace.Context) ([]byte, error) {
	if len(req.Model) > maxWireModel {
		return buf, fmt.Errorf("comm: model name of %d bytes exceeds wire limit %d", len(req.Model), maxWireModel)
	}
	if tc.ID != 0 {
		buf = append(buf, wireMsgRequestTraced)
		buf = binary.LittleEndian.AppendUint64(buf, tc.ID)
		var tflags byte
		if tc.Sampled {
			tflags |= wireTraceSampled
		}
		buf = append(buf, tflags)
	} else {
		buf = append(buf, wireMsgRequest)
	}
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(req.Model)))
	buf = append(buf, req.Model...)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(req.Version))
	if req.Inputs != nil {
		if len(req.Inputs) > math.MaxUint16 {
			return buf, fmt.Errorf("comm: batch of %d exceeds wire limit %d", len(req.Inputs), math.MaxUint16)
		}
		buf = append(buf, wireKindBatched)
		buf = binary.LittleEndian.AppendUint16(buf, uint16(len(req.Inputs)))
		for _, t := range req.Inputs {
			if t == nil {
				return buf, fmt.Errorf("comm: nil tensor in batched request")
			}
			buf = appendTensor(buf, t.Shape, t.Data, f32)
		}
		return buf, nil
	}
	if req.Features == nil {
		return buf, fmt.Errorf("comm: request carries no features")
	}
	buf = append(buf, wireKindFeatures)
	buf = binary.LittleEndian.AppendUint16(buf, 1)
	return appendTensor(buf, req.Features.Shape, req.Features.Data, f32), nil
}

// appendResponse encodes a response body (no length prefix). The header
// comes from resp; the payload from resp's float64 tensors, or from j's
// float32 ones when j computed in f32 (j.f32Resp). A nonzero traceID echoes
// the request's trace context in the traced layout (0x04).
func appendResponse(buf []byte, resp *Response, j *job, f32 bool, traceID uint64) ([]byte, error) {
	if len(resp.Model) > maxWireModel {
		return buf, fmt.Errorf("comm: model name of %d bytes exceeds wire limit %d", len(resp.Model), maxWireModel)
	}
	if len(resp.Err) > math.MaxUint16 {
		return buf, fmt.Errorf("comm: error string of %d bytes exceeds wire limit", len(resp.Err))
	}
	if resp.Code < 0 || resp.Code > math.MaxUint16 {
		return buf, fmt.Errorf("comm: response code %d out of wire range", resp.Code)
	}
	if traceID != 0 {
		buf = append(buf, wireMsgResponseTraced)
		buf = binary.LittleEndian.AppendUint64(buf, traceID)
	} else {
		buf = append(buf, wireMsgResponse)
	}
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(resp.Model)))
	buf = append(buf, resp.Model...)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(resp.Version))
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(resp.Err)))
	buf = append(buf, resp.Err...)
	buf = binary.LittleEndian.AppendUint16(buf, uint16(resp.Code))
	if j != nil && j.f32Resp {
		return appendPayload(buf, j.feats32, j.outputs32, f32)
	}
	return appendPayload(buf, resp.Features, resp.Outputs, f32)
}

// appendPayload encodes a response payload: the batched grid when outputs is
// non-empty, else the per-body feature list.
func appendPayload[P *tensor.Tensor | *tensor.Tensor32](buf []byte, feats []P, outputs [][]P, f32 bool) ([]byte, error) {
	if len(outputs) > 0 {
		outer, inner := len(outputs), len(outputs[0])
		if outer > math.MaxUint16 || inner > math.MaxUint16 {
			return buf, fmt.Errorf("comm: response outputs %d×%d exceed wire limits", outer, inner)
		}
		buf = append(buf, wireKindBatched)
		buf = binary.LittleEndian.AppendUint16(buf, uint16(outer))
		buf = binary.LittleEndian.AppendUint16(buf, uint16(inner))
		for _, row := range outputs {
			if len(row) != inner {
				return buf, fmt.Errorf("comm: ragged response outputs (%d vs %d per input)", len(row), inner)
			}
			for _, t := range row {
				if t == nil {
					return buf, fmt.Errorf("comm: nil tensor in response outputs")
				}
				buf = appendAnyTensor(buf, t, f32)
			}
		}
		return buf, nil
	}
	buf = append(buf, wireKindFeatures)
	if len(feats) > math.MaxUint16 {
		return buf, fmt.Errorf("comm: response of %d feature maps exceeds wire limit", len(feats))
	}
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(feats)))
	for _, t := range feats {
		if t == nil {
			return buf, fmt.Errorf("comm: nil tensor in response features")
		}
		buf = appendAnyTensor(buf, t, f32)
	}
	return buf, nil
}

func appendAnyTensor[P *tensor.Tensor | *tensor.Tensor32](buf []byte, t P, f32 bool) []byte {
	switch t := any(t).(type) {
	case *tensor.Tensor:
		return appendTensor(buf, t.Shape, t.Data, f32)
	case *tensor.Tensor32:
		return appendTensor(buf, t.Shape, t.Data, f32)
	}
	panic("unreachable")
}

// --- decoding ---

// wireReader is a bounds-checked cursor over one frame body.
type wireReader struct {
	b   []byte
	off int
}

func (r *wireReader) remaining() int { return len(r.b) - r.off }

func (r *wireReader) u8() (byte, error) {
	if r.remaining() < 1 {
		return 0, fmt.Errorf("comm: truncated frame")
	}
	v := r.b[r.off]
	r.off++
	return v, nil
}

func (r *wireReader) u16() (int, error) {
	if r.remaining() < 2 {
		return 0, fmt.Errorf("comm: truncated frame")
	}
	v := binary.LittleEndian.Uint16(r.b[r.off:])
	r.off += 2
	return int(v), nil
}

func (r *wireReader) u32() (uint32, error) {
	if r.remaining() < 4 {
		return 0, fmt.Errorf("comm: truncated frame")
	}
	v := binary.LittleEndian.Uint32(r.b[r.off:])
	r.off += 4
	return v, nil
}

func (r *wireReader) u64() (uint64, error) {
	if r.remaining() < 8 {
		return 0, fmt.Errorf("comm: truncated frame")
	}
	v := binary.LittleEndian.Uint64(r.b[r.off:])
	r.off += 8
	return v, nil
}

func (r *wireReader) str(n int) (string, error) {
	if r.remaining() < n {
		return "", fmt.Errorf("comm: truncated frame")
	}
	s := string(r.b[r.off : r.off+n])
	r.off += n
	return s, nil
}

// route decodes the model name and version every frame carries after its
// message header.
func (r *wireReader) route() (model string, version int, err error) {
	mlen, err := r.u16()
	if err != nil {
		return "", 0, err
	}
	if mlen > maxWireModel {
		return "", 0, fmt.Errorf("comm: model name of %d bytes exceeds wire limit", mlen)
	}
	if model, err = r.str(mlen); err != nil {
		return "", 0, err
	}
	ver, err := r.u32()
	if err != nil {
		return "", 0, err
	}
	if ver > math.MaxInt32 {
		return "", 0, fmt.Errorf("comm: version %d out of range", ver)
	}
	return model, int(ver), nil
}

// tensorHeader reads one tensor header and validates every dimension against
// the bytes actually present — the rule that keeps a hostile frame from
// turning a 20-byte message into a multi-gigabyte allocation. It returns the
// shape (in shapeBuf) and whether the payload is float32; the payload
// itself starts at r.off.
func (r *wireReader) tensorHeader(shapeBuf []int) (shape []int, f32 bool, err error) {
	rank, err := r.u8()
	if err != nil {
		return nil, false, err
	}
	if rank == 0 || rank > maxWireRank {
		return nil, false, fmt.Errorf("comm: tensor rank %d out of range [1,%d]", rank, maxWireRank)
	}
	dtype, err := r.u8()
	if err != nil {
		return nil, false, err
	}
	width := 8
	switch dtype {
	case wireDtypeF64:
	case wireDtypeF32:
		width = 4
	default:
		return nil, false, fmt.Errorf("comm: unknown tensor dtype %d", dtype)
	}
	shape = shapeBuf[:0]
	maxElems := r.remaining() / width
	n := 1
	for i := 0; i < int(rank); i++ {
		d, err := r.u32()
		if err != nil {
			return nil, false, err
		}
		// n stays ≤ maxElems (< 2^28) before each multiply and d < 2^32, so
		// the product cannot overflow a 64-bit int before the bound check.
		if d == 0 {
			return nil, false, fmt.Errorf("comm: zero tensor dimension")
		}
		if n *= int(d); n > maxElems {
			return nil, false, fmt.Errorf("comm: tensor of %d elements exceeds frame size", n)
		}
		shape = append(shape, int(d))
	}
	if r.remaining() < n*width {
		return nil, false, fmt.Errorf("comm: tensor payload truncated (%d elements, %d bytes left)", n, r.remaining())
	}
	return shape, dtype == wireDtypeF32, nil
}

// payload decodes len(dst) validated elements into dst, converting to dst's
// precision: float32 bits into a float32 tensor move without conversion.
func payload[T float32 | float64](r *wireReader, dst []T, f32 bool) {
	src := r.b[r.off:]
	if f32 {
		for i := range dst {
			dst[i] = T(math.Float32frombits(binary.LittleEndian.Uint32(src[4*i:])))
		}
		r.off += 4 * len(dst)
		return
	}
	for i := range dst {
		dst[i] = T(math.Float64frombits(binary.LittleEndian.Uint64(src[8*i:])))
	}
	r.off += 8 * len(dst)
}

// tensor decodes one tensor into a (the heap when nil).
func (r *wireReader) tensor(a *tensor.Arena, shapeBuf []int) (*tensor.Tensor, error) {
	shape, f32, err := r.tensorHeader(shapeBuf)
	if err != nil {
		return nil, err
	}
	var t *tensor.Tensor
	if a != nil {
		t = a.NewTensor(shape...) // the payload overwrites every element
	} else {
		t = tensor.New(shape...)
	}
	payload(r, t.Data, f32)
	return t, nil
}

// tensor32 decodes one tensor into the f32 arena.
func (r *wireReader) tensor32(a *tensor.Arena32, shapeBuf []int) (*tensor.Tensor32, error) {
	shape, f32, err := r.tensorHeader(shapeBuf)
	if err != nil {
		return nil, err
	}
	t := a.NewTensor(shape...)
	payload(r, t.Data, f32)
	return t, nil
}

// parseRequestInto decodes a request frame body into req. With a nil j the
// tensors land on the heap (the client and wiretap paths). With a job they
// land in its recycled storage, so the serving path's steady state allocates
// nothing: in j.arena as req.Features/req.Inputs, or, when f32 is set, in
// j.arena32 as j.feat32/j.inputs32 with req's payload fields left nil. tc
// (optional) receives the trace context of a traced frame.
func parseRequestInto(body []byte, req *Request, j *job, f32 bool, tc *trace.Context) error {
	r := wireReader{b: body}
	msg, err := r.u8()
	if err != nil {
		return err
	}
	switch msg {
	case wireMsgRequest:
	case wireMsgRequestTraced:
		id, err := r.u64()
		if err != nil {
			return err
		}
		tflags, err := r.u8()
		if err != nil {
			return err
		}
		if id == 0 {
			return fmt.Errorf("comm: traced request frame carries zero trace ID")
		}
		if tc != nil {
			tc.ID = id
			tc.Sampled = tflags&wireTraceSampled != 0
		}
	default:
		return fmt.Errorf("comm: expected request frame, got message type %d", msg)
	}
	if req.Model, req.Version, err = r.route(); err != nil {
		return err
	}
	kind, err := r.u8()
	if err != nil {
		return err
	}
	count, err := r.u16()
	if err != nil {
		return err
	}
	// The shape scratch must not live on this stack frame: tensor.New leaks
	// its shape argument, so escape analysis would heap-move a local array on
	// every request. The job donates its persistent buffer; only the job-less
	// paths (client, wiretap) pay a per-call slice.
	var shapeBuf []int
	var arena *tensor.Arena
	if j != nil {
		shapeBuf, arena = j.shape[:0], &j.arena
	} else {
		shapeBuf = make([]int, 0, maxWireRank)
	}
	switch kind {
	case wireKindFeatures:
		if count != 1 {
			return fmt.Errorf("comm: feature request carries %d tensors, want 1", count)
		}
		if f32 {
			j.feat32, err = r.tensor32(&j.arena32, shapeBuf)
		} else {
			req.Features, err = r.tensor(arena, shapeBuf)
		}
		if err != nil {
			return err
		}
	case wireKindBatched:
		if count == 0 {
			return fmt.Errorf("comm: batched request carries no inputs")
		}
		if f32 {
			inputs := j.inputs32[:0]
			for i := 0; i < count; i++ {
				t, err := r.tensor32(&j.arena32, shapeBuf)
				if err != nil {
					return err
				}
				inputs = append(inputs, t)
			}
			j.inputs32 = inputs
			break
		}
		var inputs []*tensor.Tensor
		if j != nil {
			inputs = j.inputs[:0]
		}
		for i := 0; i < count; i++ {
			t, err := r.tensor(arena, shapeBuf)
			if err != nil {
				return err
			}
			inputs = append(inputs, t)
		}
		if j != nil {
			j.inputs = inputs
		}
		req.Inputs = inputs
	default:
		return fmt.Errorf("comm: unknown request kind %d", kind)
	}
	if r.remaining() != 0 {
		return fmt.Errorf("comm: %d trailing bytes after request", r.remaining())
	}
	return nil
}

// parseResponseInto decodes a response frame body into resp, allocating from
// the heap (the client hands decoded tensors to its caller). echo (optional)
// receives the trace ID of a traced frame.
func parseResponseInto(body []byte, resp *Response, echo *uint64) error {
	r := wireReader{b: body}
	msg, err := r.u8()
	if err != nil {
		return err
	}
	switch msg {
	case wireMsgResponse:
	case wireMsgResponseTraced:
		id, err := r.u64()
		if err != nil {
			return err
		}
		if id == 0 {
			return fmt.Errorf("comm: traced response frame carries zero trace ID")
		}
		if echo != nil {
			*echo = id
		}
	default:
		return fmt.Errorf("comm: expected response frame, got message type %d", msg)
	}
	if resp.Model, resp.Version, err = r.route(); err != nil {
		return err
	}
	elen, err := r.u16()
	if err != nil {
		return err
	}
	if resp.Err, err = r.str(elen); err != nil {
		return err
	}
	if resp.Code, err = r.u16(); err != nil {
		return err
	}
	kind, err := r.u8()
	if err != nil {
		return err
	}
	var shapeBuf [maxWireRank]int
	switch kind {
	case wireKindFeatures:
		count, err := r.u16()
		if err != nil {
			return err
		}
		if count > 0 {
			resp.Features = make([]*tensor.Tensor, count)
			for i := range resp.Features {
				if resp.Features[i], err = r.tensor(nil, shapeBuf[:]); err != nil {
					return err
				}
			}
		}
	case wireKindBatched:
		outer, err := r.u16()
		if err != nil {
			return err
		}
		inner, err := r.u16()
		if err != nil {
			return err
		}
		// Bound the slice headers against the bytes present: each tensor
		// costs at least 2 bytes of header.
		if outer*inner > r.remaining()/2+1 {
			return fmt.Errorf("comm: response grid %d×%d exceeds frame size", outer, inner)
		}
		resp.Outputs = make([][]*tensor.Tensor, outer)
		for i := range resp.Outputs {
			resp.Outputs[i] = make([]*tensor.Tensor, inner)
			for b := range resp.Outputs[i] {
				if resp.Outputs[i][b], err = r.tensor(nil, shapeBuf[:]); err != nil {
					return err
				}
			}
		}
	default:
		return fmt.Errorf("comm: unknown response kind %d", kind)
	}
	if r.remaining() != 0 {
		return fmt.Errorf("comm: %d trailing bytes after response", r.remaining())
	}
	return nil
}

// --- framed I/O ---

// writeFrame sends buf (whose first 4 bytes are reserved for the length
// prefix) in a single Write.
func writeFrame(w io.Writer, buf []byte) error {
	if len(buf) < 4 {
		panic("comm: writeFrame buffer missing length prefix reservation")
	}
	body := len(buf) - 4
	if body > maxWireFrame {
		return fmt.Errorf("comm: frame of %d bytes exceeds limit %d", body, maxWireFrame)
	}
	binary.LittleEndian.PutUint32(buf, uint32(body))
	_, err := w.Write(buf)
	return err
}

// readFrame reads one length-prefixed frame into buf and returns the
// (possibly grown) buffer and the body. A frame that fits buf's capacity
// arrives in one read, in place. A longer one grows the buffer only as its
// bytes arrive — by frameGrowChunk first, then doubling — so a hostile
// length prefix followed by a short stream costs memory in proportion to
// the bytes actually received, not to the claim.
func readFrame(r io.Reader, buf []byte) ([]byte, []byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return buf, nil, err
	}
	n := int(binary.LittleEndian.Uint32(hdr[:]))
	if n > maxWireFrame {
		return buf, nil, fmt.Errorf("comm: frame of %d bytes exceeds limit %d", n, maxWireFrame)
	}
	buf = buf[:0]
	for len(buf) < n {
		if len(buf) == cap(buf) {
			buf = slices.Grow(buf, min(n-len(buf), max(len(buf), frameGrowChunk)))
		}
		got, err := io.ReadFull(r, buf[len(buf):min(cap(buf), n)])
		buf = buf[:len(buf)+got]
		if err != nil {
			if err == io.EOF && len(buf) > 0 {
				err = io.ErrUnexpectedEOF
			}
			return buf, nil, err
		}
	}
	return buf, buf, nil
}

// frameGrowChunk is the first step by which readFrame grows its buffer past
// a frame's capacity: large enough that typical frames arrive in one read,
// small enough that a lying length prefix buys the sender nothing.
const frameGrowChunk = 64 << 10

// binFramer is the framing state both ends of a connection share: the
// write/read halves plus their reusable buffers. The encode side reserves 4
// bytes for the length prefix via frameStart; method bodies stay direct
// calls (no encode closures) so the server's per-request path performs no
// allocations.
type binFramer struct {
	w      io.Writer
	r      *bufio.Reader
	f32    bool // payloads go out as float32
	encBuf []byte
	decBuf []byte
}

// frameStart returns the encode buffer with the length prefix reserved.
func (c *binFramer) frameStart() []byte { return append(c.encBuf[:0], 0, 0, 0, 0) }

// readBody reads the next frame into the reusable decode buffer.
func (c *binFramer) readBody() ([]byte, error) {
	buf, body, err := readFrame(c.r, c.decBuf)
	c.decBuf = buf
	return body, err
}

// clientCodec is one connection's wire protocol from the client side. The
// trace context rides alongside the request, not inside it; readResponse
// returns the server's echoed trace ID (0 when untraced).
type clientCodec struct{ binFramer }

func (c *clientCodec) writeRequest(req *Request, tc trace.Context) error {
	buf, err := appendRequest(c.frameStart(), req, c.f32, tc)
	c.encBuf = buf
	if err != nil {
		return err
	}
	return writeFrame(c.w, buf)
}

func (c *clientCodec) readResponse(resp *Response) (uint64, error) {
	body, err := c.readBody()
	if err != nil {
		return 0, err
	}
	*resp = Response{}
	var echo uint64
	if err := parseResponseInto(body, resp, &echo); err != nil {
		return 0, err
	}
	return echo, nil
}

// DecodeWireStream parses a captured client→server byte stream — the
// adversary's observational power over one connection — and returns every
// decoded request. The framing is public by design (Kerckhoffs: only the
// client's selection is secret); the shard privacy tests invert exactly
// what this function recovers from a wiretap.
func DecodeWireStream(stream []byte) ([]*Request, error) {
	br := bytes.NewReader(stream)
	if _, _, err := readHello(br); err != nil {
		return nil, fmt.Errorf("comm: wire stream hello: %w", err)
	}
	rest := stream[len(stream)-br.Len():]
	var out []*Request
	for len(rest) > 0 {
		if len(rest) < 4 {
			return out, fmt.Errorf("comm: truncated frame header")
		}
		n := binary.LittleEndian.Uint32(rest)
		if n > maxWireFrame {
			return out, fmt.Errorf("comm: frame of %d bytes exceeds limit", n)
		}
		if len(rest) < 4+int(n) {
			return out, fmt.Errorf("comm: truncated frame body")
		}
		req := &Request{}
		if err := parseRequestInto(rest[4:4+int(n)], req, nil, false, nil); err != nil {
			return out, err
		}
		out = append(out, req)
		rest = rest[4+int(n):]
	}
	return out, nil
}
