package comm

import (
	"context"
	"net"
	"testing"

	"ensembler/internal/nn"
	"ensembler/internal/rng"
	"ensembler/internal/tensor"
)

// TestLocalClientOverPipe exercises the client protocol over an in-memory
// net.Pipe against the server's own connection handler — no TCP, no
// training, pure protocol mechanics.
func TestLocalClientOverPipe(t *testing.T) {
	clientEnd, serverEnd := net.Pipe()
	defer clientEnd.Close()

	arch := tinyArch()
	body := arch.NewBody("b", rng.New(1))
	srv := NewServer([]*nn.Network{body})
	done := make(chan struct{})
	go func() {
		defer close(done)
		srv.handle(serverEnd)
	}()
	// handle needs a worker to answer its requests.
	stop := make(chan struct{})
	go srv.worker(stop)
	defer close(stop)

	client, err := NewLocalClient(clientEnd)
	if err != nil {
		t.Fatal(err)
	}
	client.ComputeFeatures = func(x *tensor.Tensor) *tensor.Tensor {
		// Identity "head": the protocol doesn't care what computes features.
		return x
	}
	client.Select = func(features []*tensor.Tensor) *tensor.Tensor { return features[0] }
	client.Tail = nn.NewNetwork("t", nn.NewLinear("fc", arch.FeatureDim(), arch.Classes, rng.New(2)))

	x := tensor.New(2, arch.HeadC, 8, 8)
	rng.New(3).FillNormal(x.Data, 0, 1)
	logits, timing, err := client.Infer(context.Background(), x)
	if err != nil {
		t.Fatal(err)
	}
	if logits.Shape[0] != 2 || logits.Shape[1] != arch.Classes {
		t.Fatalf("logits shape %v", logits.Shape)
	}
	if timing.BytesUp == 0 || timing.BytesDown == 0 {
		t.Error("pipe byte accounting missing")
	}
	client.Close()
	<-done
}
