// Command splitbench is the repository's benchmark: it drives a real seeded
// Ensembler through the public serving path — registry-backed comm servers,
// pooled comm clients wired from Ensembler.NewClientRuntime, and the
// scatter-gather shard client — checks every response against a local
// reference, and reports end-to-end metrics, or per-layer metrics from a
// traced run. See README.md for the workloads and metrics.
//
// Run from the repository root:
//
//	bash splitbench/run.sh --workload paper_closed --seed 1 --seconds 20 --trace 0
//	bash splitbench/run.sh --workload all --seed 1 --seconds 20
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics; the metrics are those that
// BENCHMARK.json lists as end_to_end (--trace 0) or per_layer (--trace 1).
package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"

	"ensembler/internal/comm"
)

func main() {
	ok, err := run(os.Args[1:], os.Stdout)
	if err != nil {
		fmt.Fprintf(os.Stderr, "splitbench: %v\n", err)
		os.Exit(2)
	}
	if !ok {
		fmt.Fprintln(os.Stderr, "splitbench: a response failed the reference check")
		os.Exit(1)
	}
}

// contract is the part of BENCHMARK.json the output must match.
type contract struct {
	EndToEnd []declared `json:"end_to_end"`
	PerLayer []declared `json:"per_layer"`
}

type declared struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func run(args []string, stdout io.Writer) (bool, error) {
	fl := flag.NewFlagSet("splitbench", flag.ContinueOnError)
	name := fl.String("workload", "", "workload to run: paper_closed, open_f32, fleet_rotating, or all")
	seed := fl.Int64("seed", 1, "seed for the pipeline weights and the request stream")
	seconds := fl.Int("seconds", 20, "measured seconds per run")
	traced := fl.Int("trace", 0, "0: end-to-end metrics with tracing off; 1: per-layer metrics from a traced run")
	if err := fl.Parse(args); err != nil {
		return false, err
	}
	if fl.NArg() > 0 || *seconds < 1 || (*traced != 0 && *traced != 1) {
		return false, fmt.Errorf("usage: --workload <name> --seed <n> --seconds <s> --trace <0|1>")
	}
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return false, err
	}
	var c contract
	if err := json.Unmarshal(raw, &c); err != nil {
		return false, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	var todo []workload
	for _, w := range workloads {
		if *name == "all" || *name == w.name {
			todo = append(todo, w)
		}
	}
	if len(todo) == 0 {
		return false, fmt.Errorf("unknown workload %q", *name)
	}
	modes := []bool{*traced == 1}
	if *name == "all" {
		modes = []bool{false, true}
	}

	// Every server in the process runs two workers, which are the serving
	// path's one level of parallelism.
	comm.PinKernelParallelism(2)
	d := time.Duration(*seconds) * time.Second
	allOK := true
	for _, w := range todo {
		for _, tr := range modes {
			fmt.Fprintf(stdout, "# splitbench workload=%s seed=%d seconds=%d trace=%d\n", w.name, *seed, *seconds, b2i(tr))
			meta, _ := json.Marshal(runMeta(*seed))
			fmt.Fprintf(stdout, "meta %s\n", meta)
			ok, err := runOne(stdout, c, w, *seed, d, tr)
			if err != nil {
				return false, fmt.Errorf("%s: %w", w.name, err)
			}
			allOK = allOK && ok
		}
	}
	return allOK, nil
}

// runOne runs one workload once and prints its report. A traced run
// measures half the time untraced and half traced; the tracing overhead is
// the throughput the traced half lost.
func runOne(stdout io.Writer, c contract, w workload, seed int64, d time.Duration, traced bool) (bool, error) {
	var res []*result
	if !traced {
		r, err := w.run(seed, d, false)
		if err != nil {
			return false, err
		}
		res = []*result{r}
	} else {
		plain, err := w.run(seed, d/2, false)
		if err != nil {
			return false, err
		}
		tr, err := w.run(seed, d/2, true)
		if err != nil {
			return false, err
		}
		base, with := find(plain.e2e, "throughput_rps"), find(tr.e2e, "throughput_rps")
		tr.layers = append(tr.layers, metric{"trace.overhead_pct", 100 * (base - with) / base, "%"})
		res = []*result{plain, tr}
	}

	out := struct {
		Correct   bool                      `json:"correct"`
		Attempted int64                     `json:"attempted"`
		Failed    int64                     `json:"failed"`
		Metrics   map[string]map[string]any `json:"metrics"`
	}{Correct: true, Metrics: map[string]map[string]any{}}
	for i, r := range res {
		label := ""
		if traced {
			label = [2]string{"untraced.", "traced."}[i]
		}
		for _, p := range r.phases {
			t := p.t
			fmt.Fprintf(stdout, "phase %s%s sent=%d ok=%d failed=%d shed=%d wrong=%d mixed_epoch=%d\n",
				label, p.name, t.sent, t.ok, t.failed, t.shed, t.wrong, t.mixed)
			if t.firstErr != "" {
				fmt.Fprintf(stdout, "phase %s%s first_error=%q\n", label, p.name, t.firstErr)
			}
			out.Attempted += t.sent
			out.Failed += t.misses()
			out.Correct = out.Correct && t.wrong == 0
		}
	}
	last := res[len(res)-1]
	decl, got := c.EndToEnd, last.e2e
	if traced {
		// The figures a traced run reports beside its layers come from its
		// untraced half.
		decl, got = c.PerLayer, append(append([]metric{}, last.layers...), res[0].extra...)
	}
	printed := map[string]bool{}
	for _, r := range res {
		for _, m := range append(append([]metric{}, r.e2e...), r.extra...) {
			if !printed[m.name] {
				fmt.Fprintf(stdout, "metric %s %v %s\n", m.name, m.value, m.unit)
				printed[m.name] = true
			}
		}
	}
	byName := map[string]metric{}
	for _, m := range got {
		byName[m.name] = m
	}
	for _, dm := range decl {
		m, ok := byName[dm.Name]
		switch {
		case !ok && traced:
			// A layer this workload's requests never pass through.
			m = metric{dm.Name, 0, dm.Unit}
			fmt.Fprintf(stdout, "layer %s 0 %s (not on this workload's path)\n", dm.Name, dm.Unit)
		case !ok:
			return false, fmt.Errorf("end-to-end metric %s was not measured", dm.Name)
		case m.unit != dm.Unit:
			return false, fmt.Errorf("metric %s measured in %s, declared in %s", dm.Name, m.unit, dm.Unit)
		case traced:
			fmt.Fprintf(stdout, "layer %s %v %s\n", m.name, m.value, m.unit)
		}
		out.Metrics[dm.Name] = map[string]any{"value": m.value, "unit": dm.Unit}
	}
	if traced {
		var undeclared []string
		for n := range byName {
			if !hasName(decl, n) {
				undeclared = append(undeclared, n)
			}
		}
		if len(undeclared) > 0 {
			sort.Strings(undeclared)
			return false, fmt.Errorf("per-layer metrics missing from the benchmark definition: %v", undeclared)
		}
	}
	line, err := json.Marshal(out)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return out.Correct, nil
}

func find(ms []metric, name string) float64 {
	for _, m := range ms {
		if m.name == name {
			return m.value
		}
	}
	return 0
}

func hasName(ds []declared, name string) bool {
	for _, d := range ds {
		if d.Name == name {
			return true
		}
	}
	return false
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// meta is recorded with every run.
type meta struct {
	Seed         int64  `json:"seed"`
	NumCPU       int    `json:"nproc"`
	GOMAXPROCS   int    `json:"gomaxprocs"`
	CPUModel     string `json:"cpu_model"`
	GoVersion    string `json:"go_version"`
	Commit       string `json:"commit"`
	SourceSHA256 string `json:"source_sha256"`
	// ProbeMops is the host's speed on every connection's core at the
	// start of the run, by the probe that scales throughput (host.go).
	ProbeMops float64 `json:"probe_mops"`
}

func runMeta(seed int64) meta {
	m := meta{Seed: seed, NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUModel: cpuModel(), GoVersion: runtime.Version(), Commit: "unknown", SourceSHA256: sourceDigest(),
		ProbeMops: probe(conns)}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				m.Commit = s.Value
			}
		}
	}
	return m
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// sourceDigest hashes the Go sources and module files under the working
// directory, which identifies the code measured when the checkout carries
// no version-control data.
func sourceDigest() string {
	h := sha256.New()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && path != "." {
			return filepath.SkipDir
		}
		if d.IsDir() || !(strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s %d\n", path, len(b))
		h.Write(b)
		return nil
	})
	if err != nil {
		return "unknown: " + err.Error()
	}
	return hex.EncodeToString(h.Sum(nil))
}
