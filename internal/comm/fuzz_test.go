package comm

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"testing"
	"time"

	"ensembler/internal/tensor"
	"ensembler/internal/trace"
)

// FuzzWireRequestFrame runs arbitrary bytes through the binary request
// parser — the server's trust boundary for everything after the frame
// length. The parser must never panic and never allocate beyond what the
// frame's actual byte count supports (the lying-dims guard); round-tripping
// whatever decodes must reproduce the frame's semantics.
func FuzzWireRequestFrame(f *testing.F) {
	seed, err := appendRequest(nil, &Request{Model: "m", Version: 2, Features: wireTensor(41, 1, 2, 4, 4)}, false, trace.Context{})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	batched, err := appendRequest(nil, &Request{Inputs: []*tensor.Tensor{wireTensor(42, 1, 2, 4, 4)}}, true, trace.Context{})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(batched)
	f.Add([]byte{wireMsgRequest, 0, 0, 0, 0, 0, 0, wireKindFeatures, 1, 0, 1, wireDtypeF64, 1, 0, 0, 0})
	// The traced frame: same payload behind the trace header. A corrupted
	// variant (trace ID zeroed, which the parser must reject) seeds the
	// invalid branch.
	traced, err := appendRequest(nil, &Request{Model: "m", Version: 2, Features: wireTensor(41, 1, 2, 4, 4)},
		false, trace.Context{ID: 0x0123456789ABCDEF, Sampled: true})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(traced)
	zeroID := append([]byte(nil), traced...)
	for i := 1; i <= 8; i++ {
		zeroID[i] = 0
	}
	f.Add(zeroID)
	f.Add([]byte{wireMsgRequestTraced, 1, 2, 3}) // truncated trace header
	f.Fuzz(func(t *testing.T, body []byte) {
		var req Request
		if err := parseRequestInto(body, &req, nil, false, nil); err != nil {
			return
		}
		// Whatever parsed must re-encode and re-parse to the same header.
		re, err := appendRequest(nil, &req, false, trace.Context{})
		if err != nil {
			t.Fatalf("decoded request does not re-encode: %v", err)
		}
		var req2 Request
		if err := parseRequestInto(re, &req2, nil, false, nil); err != nil {
			t.Fatalf("re-encoded request does not parse: %v", err)
		}
		if req2.Model != req.Model || req2.Version != req.Version {
			t.Fatal("request header does not round-trip")
		}
	})
}

// FuzzWireResponseFrame covers the client's half of the trust boundary: the
// server is the adversary of the threat model, so its frames deserve the
// same hostility testing as requests. A frame that decodes must round-trip
// its code (the overload verdict must survive the wire exactly, or a shed
// would be mistaken for a terminal failure).
func FuzzWireResponseFrame(f *testing.F) {
	seed, err := appendResponse(nil, &Response{Model: "m", Version: 1,
		Features: []*tensor.Tensor{wireTensor(43, 2, 8)}}, nil, false, 0)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	errFrame, err := appendResponse(nil, &Response{Err: "x"}, nil, false, 0)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(errFrame)
	// The admission-control shed frame, exactly as the dispatcher emits it.
	shed, err := appendResponse(nil, &Response{Err: overloadedMsg, Code: CodeOverloaded}, nil, false, 0)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(shed)
	// The traced response: trace-ID echo ahead of the payload, plus a
	// truncated-echo corruption.
	echoed, err := appendResponse(nil, &Response{Model: "m", Version: 1,
		Features: []*tensor.Tensor{wireTensor(43, 2, 8)}}, nil, false, 0xFEEDFACECAFEBEEF)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(echoed)
	f.Add([]byte{wireMsgResponseTraced, 0xEF, 0xBE})
	f.Fuzz(func(t *testing.T, body []byte) {
		var resp Response
		if err := parseResponseInto(body, &resp, nil); err != nil {
			return
		}
		re, err := appendResponse(nil, &resp, nil, false, 0)
		if err != nil {
			t.Fatalf("decoded response does not re-encode: %v", err)
		}
		var resp2 Response
		if err := parseResponseInto(re, &resp2, nil); err != nil {
			t.Fatalf("re-encoded response does not parse: %v", err)
		}
		if resp2.Code != resp.Code || resp2.Err != resp.Err {
			t.Fatalf("response code/err does not round-trip: (%d,%q) vs (%d,%q)",
				resp.Code, resp.Err, resp2.Code, resp2.Err)
		}
	})
}

// FuzzWireStream covers the wiretap/stream parser, hello included.
func FuzzWireStream(f *testing.F) {
	stream := func(clientID string, tc trace.Context) []byte {
		var buf bytes.Buffer
		buf.Write(appendHello(nil, false, clientID))
		c := &clientCodec{binFramer{w: &buf}}
		if err := c.writeRequest(&Request{Features: wireTensor(44, 1, 1, 2, 2)}, tc); err != nil {
			f.Fatal(err)
		}
		return buf.Bytes()
	}
	plain := stream("", trace.Context{})
	f.Add(plain)
	f.Add(stream("client-a", trace.Context{ID: 7, Sampled: true}))
	// The server→client direction opens with an ack, which the request
	// stream parser must reject rather than misread.
	ack := helloAck(25)
	f.Add(append(ack[:], plain[7:]...))
	f.Add([]byte{0xE5, 'N', 'S', 'B'})
	f.Add([]byte{0xE5, 'N', 'S', 'B', wireVersion, 0, 0xFF})
	f.Add([]byte{3, 0xFF})
	f.Fuzz(func(t *testing.T, stream []byte) {
		_, _ = DecodeWireStream(stream)
	})
}

// FuzzWireTracedFrames is the trace-extension trust boundary: arbitrary
// bytes through the traced request parser must never panic, anything that
// parses must carry a nonzero trace ID (the zero ID is the reserved
// "untraced" value and the parser rejects it), and the trace context must
// round-trip exactly — a sampled flag or ID that mutates in flight would
// stitch legs onto the wrong trace.
func FuzzWireTracedFrames(f *testing.F) {
	for _, tc := range []trace.Context{
		{ID: 1},
		{ID: ^uint64(0), Sampled: true},
		{ID: 0x0123456789ABCDEF, Sampled: true},
	} {
		seed, err := appendRequest(nil, &Request{Model: "m", Features: wireTensor(41, 1, 2, 4, 4)}, false, tc)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(seed)
	}
	f.Add([]byte{wireMsgRequestTraced, 0, 0, 0, 0, 0, 0, 0, 0, 0})    // zero ID: must be rejected
	f.Add([]byte{wireMsgRequestTraced, 1, 0, 0, 0, 0, 0, 0, 0, 0xFF}) // unknown tflags bits
	f.Add([]byte{wireMsgRequestTraced, 1, 2, 3, 4})                   // truncated ID
	f.Fuzz(func(t *testing.T, body []byte) {
		var req Request
		var tc trace.Context
		if err := parseRequestInto(body, &req, newJob(), false, &tc); err != nil {
			return
		}
		if len(body) > 0 && body[0] == wireMsgRequestTraced && tc.ID == 0 {
			t.Fatal("traced frame parsed with the reserved zero trace ID")
		}
		re, err := appendRequest(nil, &req, false, tc)
		if err != nil {
			t.Fatalf("decoded traced request does not re-encode: %v", err)
		}
		var req2 Request
		var tc2 trace.Context
		if err := parseRequestInto(re, &req2, nil, false, &tc2); err != nil {
			t.Fatalf("re-encoded traced request does not parse: %v", err)
		}
		if tc2 != tc {
			t.Fatalf("trace context does not round-trip: %+v vs %+v", tc, tc2)
		}
	})
}

// FuzzWireHelloAck runs arbitrary bytes through the client's half of the
// hello exchange — the window-advice surface a hostile server controls. The
// client must never panic, never accept an ack naming another version, and
// any window it does accept must be what the ack's u16 encodes.
func FuzzWireHelloAck(f *testing.F) {
	good := helloAck(0)
	f.Add(good[:])
	windowed := helloAck(25)
	f.Add(windowed[:])
	oldVersion := helloAck(0)
	oldVersion[4] = 4
	f.Add(oldVersion[:])
	tooNew := helloAck(0)
	tooNew[4] = 99
	f.Add(tooNew[:])
	f.Add([]byte("notmagic"))
	f.Add([]byte{0xE5, 'N', 'S', 'B', 0, 0, 0})
	f.Fuzz(func(t *testing.T, ack []byte) {
		var sink bytes.Buffer
		window, err := negotiateClient(&sink, bufio.NewReader(bytes.NewReader(ack)), true, "fuzz-client")
		if err != nil {
			return
		}
		if ack[4] != wireVersion {
			t.Fatalf("accepted an ack naming wire version %d", ack[4])
		}
		if want := time.Duration(binary.LittleEndian.Uint16(ack[5:7])) * time.Millisecond; window != want {
			t.Fatalf("accepted window %v, ack encodes %v", window, want)
		}
		if !bytes.Equal(sink.Bytes(), appendHello(nil, true, "fuzz-client")) {
			t.Fatalf("client wrote %x, not exactly its hello", sink.Bytes())
		}
	})
}

// FuzzWireHelloClientID is the server's trust boundary for the hello, where
// a client declares its identity: arbitrary bytes through readHello must
// never panic, anything accepted must satisfy the identity discipline (1-64
// printable ASCII bytes, or no ID at all), and an accepted hello must
// round-trip through the encoder exactly.
func FuzzWireHelloClientID(f *testing.F) {
	f.Add(appendHello(nil, false, "client-a"))
	f.Add(appendHello(nil, true, "did:key:z6MkhaXgBZDvotDkL5257faiztiGiC2QtKLGpbnnEGta2doK"))
	f.Add(appendHello(nil, false, ""))
	hdr := appendHello(nil, false, "")
	f.Add(append(hdr[:6:6], 5, 'a', 'b'))                   // truncated ID
	f.Add(append(hdr[:6:6], 1, ' '))                        // space: not printable-ASCII per the wire rule
	f.Add(append(hdr[:6:6], 1, 0x00))                       // control byte
	f.Add(append(hdr[:6:6], 3, 'a', 0xFF, 'b'))             // high bit set
	f.Add(append(hdr[:6:6], 65))                            // over the length cap
	f.Add(append(hdr[:5:5], 0x02, 0))                       // unknown flag
	f.Add([]byte{0xE5, 'N', 'S', 'B', 4, 0x02, 0, 0, 5, 2}) // an old v4 hello
	f.Fuzz(func(t *testing.T, hello []byte) {
		f32, id, err := readHello(bytes.NewReader(hello))
		if err != nil {
			return
		}
		if id != "" && !ValidClientID(id) {
			t.Fatalf("readHello accepted invalid client ID %q", id)
		}
		re := appendHello(nil, f32, id)
		if !bytes.Equal(re, hello[:len(re)]) {
			t.Fatalf("hello does not round-trip: %x -> %x", hello, re)
		}
	})
}
