package shard_test

import (
	"bytes"
	"context"
	"io"
	"net"
	"sync"
	"testing"

	"ensembler/internal/attack"
	"ensembler/internal/comm"
	"ensembler/internal/commtest"
	"ensembler/internal/data"
	"ensembler/internal/ensemble"
	"ensembler/internal/registry"
	"ensembler/internal/rng"
	"ensembler/internal/shard"
	"ensembler/internal/split"
	"ensembler/internal/tensor"
)

// This file verifies the defense property through the real serving stack:
// an adversary tapping the bytes of one shard (holding only that shard's
// bodies) reconstructs the client's private images no better than the
// full-knowledge monolithic adversary, and both stay below the undefended
// baseline. The victim features are captured OFF THE WIRE — the frames an
// adversarial host actually records — not taken from an in-process hook.

// wiretap is a TCP forwarding proxy that records the client→server byte
// stream of every connection separately (each connection opens with its own
// hello; concatenating them would corrupt the second decode).
type wiretap struct {
	addr  string
	mu    sync.Mutex
	conns []*bytes.Buffer
}

func startWiretap(t *testing.T, backend string) *wiretap {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	w := &wiretap{addr: ln.Addr().String()}
	go func() {
		for {
			client, err := ln.Accept()
			if err != nil {
				return
			}
			server, err := net.Dial("tcp", backend)
			if err != nil {
				client.Close()
				continue
			}
			buf := &bytes.Buffer{}
			w.mu.Lock()
			w.conns = append(w.conns, buf)
			w.mu.Unlock()
			go func() { // client → server, teed into the tap
				io.Copy(server, io.TeeReader(client, &lockedWriter{w: buf, mu: &w.mu}))
				server.(*net.TCPConn).CloseWrite()
			}()
			go func() { // server → client
				io.Copy(client, server)
				client.Close()
				server.Close()
			}()
		}
	}()
	return w
}

// lockedWriter serializes tap writes against capturedFeatures reads.
type lockedWriter struct {
	w  io.Writer
	mu *sync.Mutex
}

func (l *lockedWriter) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.w.Write(p)
}

// capturedFeatures decodes every request the tap recorded and returns the
// transmitted feature tensors, across all connections. DecodeWireStream
// handles either protocol a client may have spoken — the framing is public;
// only the selection is secret.
func (w *wiretap) capturedFeatures(t *testing.T) []*tensor.Tensor {
	t.Helper()
	w.mu.Lock()
	defer w.mu.Unlock()
	var out []*tensor.Tensor
	for _, buf := range w.conns {
		reqs, err := comm.DecodeWireStream(buf.Bytes())
		if err != nil {
			t.Fatalf("decoding tapped stream: %v", err)
		}
		for _, req := range reqs {
			if req.Features != nil {
				out = append(out, req.Features)
			}
		}
	}
	return out
}

// wireVictim is an attack.Victim backed by features captured off the wire:
// the adversary inverts exactly the bytes it observed, for exactly the
// batch the client sent.
type wireVictim struct {
	t        *testing.T
	captured *tensor.Tensor
}

func (v wireVictim) ClientFeatures(x *tensor.Tensor) *tensor.Tensor {
	if v.captured.Shape[0] != x.Shape[0] {
		v.t.Fatalf("captured features cover %d samples, attack asks for %d", v.captured.Shape[0], x.Shape[0])
	}
	return v.captured
}

// undefendedVictim adapts a plain split model (no noise, no ensemble) as
// the undefended baseline victim.
type undefendedVictim struct{ m *split.Model }

func (v undefendedVictim) ClientFeatures(x *tensor.Tensor) *tensor.Tensor {
	return v.m.ClientFeatures(x, false)
}

func privacySplits(seed int64) *data.Splits {
	sp := data.Generate(data.Config{Kind: data.CIFAR10Like, H: 8, W: 8, Train: 96, Aux: 64, Test: 32, Seed: seed})
	for _, ds := range []*data.Dataset{sp.Train, sp.Aux, sp.Test} {
		ds.Classes = 4
		for i, l := range ds.Labels {
			ds.Labels[i] = l % 4
		}
	}
	return sp
}

func TestAdversarialShardPrivacyEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("attack training smoke test")
	}
	sp := privacySplits(101)
	arch := commtest.TinyArch()

	// The defended pipeline, trained for real: the attack quality ordering
	// below rests on stage-3 head orthogonalization actually happening.
	cfg := ensemble.Config{
		Arch: arch, N: 4, P: 2, Sigma: 0.05, Lambda: 0.5, Seed: 102,
		Stage1:      split.TrainOptions{Epochs: 2, BatchSize: 16, LR: 0.05},
		Stage3:      split.TrainOptions{Epochs: 2, BatchSize: 16, LR: 0.05},
		Stage1Noise: true,
	}
	e := ensemble.Train(cfg, sp.Train, nil)

	reg := registry.New(nil)
	if _, err := reg.Publish("victim", e); err != nil {
		t.Fatal(err)
	}

	// Monolithic deployment with a tap in front of it.
	monoLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	monoCtx, monoCancel := context.WithCancel(context.Background())
	defer monoCancel()
	monoServed := make(chan error, 1)
	go func() { monoServed <- comm.NewModelServer(reg).Serve(monoCtx, monoLn) }()
	defer func() { monoCancel(); <-monoServed }()
	monoTap := startWiretap(t, monoLn.Addr().String())

	// K=2 fleet; the adversary taps shard 0, which hosts bodies [0,2).
	fleet, err := commtest.StartShardServers(reg, e, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		for i := range fleet.Addrs {
			fleet.StopShard(i)
		}
	}()
	shardTap := startWiretap(t, fleet.Addrs[0])

	// The victim's private eval batch flows through both deployments.
	idxs := make([]int, 16)
	for i := range idxs {
		idxs[i] = i
	}
	x, _ := sp.Test.Batch(idxs)

	monoClient, err := comm.Dial(monoTap.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer monoClient.Close()
	monoClient.ComputeFeatures = e.ClientFeatures
	monoClient.Select = e.Selector.Apply
	monoClient.Tail = e.Tail
	if _, _, err := monoClient.Infer(context.Background(), x); err != nil {
		t.Fatal(err)
	}

	shardCfg := fleet.ClientConfig()
	shardCfg.Addrs = []string{shardTap.addr, fleet.Addrs[1]}
	shardClient, err := shard.NewClient(shardCfg)
	if err != nil {
		t.Fatal(err)
	}
	defer shardClient.Close()
	if _, _, err := shardClient.Infer(context.Background(), x); err != nil {
		t.Fatal(err)
	}

	monoCaptured := monoTap.capturedFeatures(t)
	shardCaptured := shardTap.capturedFeatures(t)
	if len(monoCaptured) != 1 || len(shardCaptured) != 1 {
		t.Fatalf("expected one captured request per tap, got %d and %d", len(monoCaptured), len(shardCaptured))
	}
	// The shard observer sees the identical transmitted representation the
	// monolith sees — fan-out sends the same features everywhere — and it
	// is genuinely the defended representation the client computed.
	if !shardCaptured[0].AllClose(monoCaptured[0], 1e-9) {
		t.Error("per-shard and monolithic taps observed different features")
	}
	if !monoCaptured[0].AllClose(e.ClientFeatures(x), 1e-9) {
		t.Error("captured wire features are not the defended client features")
	}

	// The undefended baseline: a plain split model, no noise, no secret.
	// Against it the decoder trains on the victim's true features (the
	// oracle form): with nothing hidden, the standard-CI adversary's
	// shadow converges to exactly that, so the oracle is the honest
	// strength of the undefended attack — and unlike a 3-epoch shadow, it
	// is stable at this test scale.
	undefended := split.NewModel("plain", arch, 0, 0, 0, rng.New(103))
	split.Train(undefended, sp.Train, split.TrainOptions{Epochs: 3, BatchSize: 16, LR: 0.05, Seed: 104})

	acfg := attack.Config{
		Arch: arch, ShadowEpochs: 3, DecoderEpochs: 6,
		BatchSize: 16, ShadowLR: 0.01, Seed: 105, StructuredShadow: true,
	}
	shard0Bodies := e.Bodies()[fleet.Ranges[0].Lo:fleet.Ranges[0].Hi]
	perShard := attack.RunDecoderAttack(acfg, "shard0-observer", shard0Bodies, false,
		wireVictim{t, shardCaptured[0]}, sp.Aux, sp.Test, len(idxs))
	full := attack.RunDecoderAttack(acfg, "full-knowledge", e.Bodies(), false,
		wireVictim{t, monoCaptured[0]}, sp.Aux, sp.Test, len(idxs))
	base := attack.OracleDecoderAttack(acfg, undefendedVictim{undefended}, sp.Aux, sp.Test, len(idxs))

	t.Logf("SSIM: undefended %.3f, full-knowledge %.3f, shard0-observer %.3f", base.SSIM, full.SSIM, perShard.SSIM)

	// The defense ordering, measured through the real serving stack: a
	// shard observer is no better off than the full-knowledge attacker
	// (it holds strictly less — a body subset), and both sit clearly below
	// the undefended baseline.
	const tol = 0.05 // attack outcomes are noisy at this scale; ordering must still hold
	if perShard.SSIM > full.SSIM+tol {
		t.Errorf("per-shard observer (SSIM %.3f) must not beat the full-knowledge attacker (%.3f)", perShard.SSIM, full.SSIM)
	}
	if full.SSIM >= base.SSIM {
		t.Errorf("full-knowledge attack on the defended pipeline (SSIM %.3f) must stay below the undefended baseline (%.3f)", full.SSIM, base.SSIM)
	}
	if perShard.SSIM >= base.SSIM {
		t.Errorf("per-shard attack (SSIM %.3f) must stay below the undefended baseline (%.3f)", perShard.SSIM, base.SSIM)
	}
}
