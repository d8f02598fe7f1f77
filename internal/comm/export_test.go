package comm

import (
	"encoding/binary"
	"testing"

	"ensembler/internal/trace"
)

// Test-only hooks for the external comm_test package, whose hand-rolled
// peers need raw wire bytes.

// StubServer runs a hand-rolled wire server that answers every
// connection's i-th request with respond(i).
func StubServer(t *testing.T, respond func(i int) *Response) string {
	return stubServer(t, 0, respond)
}

// Hello returns an anonymous float64 client hello.
func Hello() []byte { return appendHello(nil, false, "") }

// HelloAck returns a server's ack advertising the given batch window.
func HelloAck(windowMs uint16) []byte {
	ack := helloAck(windowMs)
	return ack[:]
}

// RequestFrame encodes req as one length-prefixed untraced frame.
func RequestFrame(req *Request) ([]byte, error) {
	buf, err := appendRequest([]byte{0, 0, 0, 0}, req, false, trace.Context{})
	if err != nil {
		return nil, err
	}
	binary.LittleEndian.PutUint32(buf, uint32(len(buf)-4))
	return buf, nil
}
