// Command bgqperf is bgqflow's benchmark. It drives each layer from the
// outside, through its public functions, on one of four workloads, checks
// every output, and prints its metrics by name and unit; the last line of
// standard output is one JSON object with the result.
//
//	bash perfbench/run.sh --workload mira-scale --seed 131072 --seconds 10 --trace 0
//	bash perfbench/run.sh --compare a.json b.json
//
// See README.md beside this file for the workloads, the metrics and the
// layer each metric belongs to.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// Default seeds: the simulated workloads reproduce bgqbench_full.txt at
// theirs.
const (
	miraDefaultSeed  = 131072
	ioAggDefaultSeed = 131072
)

type metricDef struct{ name, unit string }

// endToEnd lists the metrics every untraced run prints; see README.md
// for what each means on each workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"run_s", "s"},
	{"peak_rss_mb", "MB"},
	{"plans_per_s", "1/s"},
	{"p50_ms", "ms"},
	{"p99_ms", "ms"},
	{"fault_ack_p50_ms", "ms"},
	{"fail_ratio", "ratio"},
}

// perLayer lists the metrics every traced run prints; a layer that does
// no work on a workload reads 0 there.
var perLayer = []metricDef{
	{"torus.build_s", "s"},
	{"netsim.build_s", "s"},
	{"ionet.build_s", "s"},
	{"mpisim.job_s", "s"},
	{"netsim.submit_s", "s"},
	{"netsim.run_s", "s"},
	{"netsim.ns_per_sweep", "ns"},
	{"netsim.sweeps", "count"},
	{"netsim.releveled_flows", "count"},
	{"netsim.releveled_links", "count"},
	{"netsim.flows_done", "count"},
	{"netsim.flows_aborted", "count"},
	{"mem.alloc_mb", "MB"},
	{"core.agg_plan_s", "s"},
	{"collio.plan_s", "s"},
	{"core.pair_compute_ms_p99", "ms"},
	{"serve.handler_us_p50", "us"},
	{"serve.handler_us_p99", "us"},
	{"serve.client_share", "ratio"},
	{"serve.queue_ms_p99", "ms"},
	{"serve.cache_hit_ratio", "ratio"},
	{"serve.plans_computed", "count"},
	{"serve.coalesced", "count"},
	{"serve.shed", "count"},
	{"serve.stale_rejects", "count"},
	{"mem.alloc_kb_per_plan", "KB"},
	{"client.roundtrip_us_p50", "us"},
	{"client.roundtrip_us_p99", "us"},
	{"ring.roundtrip_us_p50", "us"},
	{"ring.direct_us_p50", "us"},
	{"ring.retries", "count"},
	{"ring.failovers", "count"},
	{"cluster.fault_handler_ms_p50", "ms"},
	{"cluster.gossip_posts", "count"},
	{"cluster.gossip_handler_ms_p50", "ms"},
	{"gen.late_ms_p99", "ms"},
	{"gen.sent_ratio", "ratio"},
	{"self.client_us", "us"},
	{"self.handler_us", "us"},
	{"self.queue_us", "us"},
	{"self.compute_us", "us"},
	{"trace.overhead_ratio", "ratio"},
}

type options struct {
	workload string
	seed     int64
	dur      time.Duration
	trace    bool
	// corrupt deliberately breaks one expected output ("digest" or
	// "plan"), to show the checks catch a wrong result.
	corrupt string
}

// expect returns the expected digest, or a corrupted one under
// --corrupt digest.
func (o options) expect(digest string) string {
	if o.corrupt == "digest" {
		return digest + "-corrupted"
	}
	return digest
}

// report collects one run's outcome.
type report struct {
	attempted, failed int64
	reasons           []string
	invalidWhy        []string
	e2e, layer        map[string]float64
	notes             []string
}

func newReport() *report {
	return &report{e2e: map[string]float64{}, layer: map[string]float64{}}
}

func (r *report) fail(n int64, format string, args ...any) {
	r.failed += n
	r.reasons = append(r.reasons, fmt.Sprintf(format, args...))
}

func (r *report) invalid(why string) { r.invalidWhy = append(r.invalidWhy, why) }

func (r *report) notef(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

func (r *report) checkDigest(got, want string) {
	if got != want {
		r.fail(r.attempted, "simulated digest %s, expected %s", got, want)
	}
}

// simLatency reports the simulated flow completion times as p50_ms and
// p99_ms.
func (r *report) simLatency(ms []float64) {
	d := summarize(ms, 99)
	r.e2e["p50_ms"], r.e2e["p99_ms"] = d.P50, d.Tail
	r.notef("simulated flow latency: n=%d p50 %.4f ms, p%g %.4f ms", d.N, d.P50, d.TailPct, d.Tail)
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// fingerprint identifies the host and commit a result came from.
type fingerprint struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	Rev        string `json:"rev"`
	Dirty      bool   `json:"dirty"`
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	Trace      bool   `json:"trace"`
}

// sameHost reports whether two results came from comparable hosts.
func (f fingerprint) sameHost(o fingerprint) bool {
	return f.CPU == o.CPU && f.NProc == o.NProc && f.GOMAXPROCS == o.GOMAXPROCS && f.Go == o.Go
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, l := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(l, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// gitRev returns the checkout's commit and whether its tracked files
// differ from it; "none" outside a git repository.
func gitRev() (string, bool) {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "none", false
	}
	st, err := exec.Command("git", "status", "--porcelain", "--untracked-files=no").Output()
	return strings.TrimSpace(string(out)), err == nil && len(st) > 0
}

func takeFingerprint(o options) fingerprint {
	rev, dirty := gitRev()
	return fingerprint{
		CPU: cpuModel(), NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go: runtime.Version(), Rev: rev, Dirty: dirty,
		Workload: o.workload, Seed: o.seed, Trace: o.trace,
	}
}

// peakRSSMB is the process's high-water resident set size. Workloads
// read it when their timed phases end, before the output checks and
// probes, whose memory is the benchmark's own.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // kB on Linux
}

// record is what --out writes: the result plus its fingerprint and
// notes, the input of --compare.
type record struct {
	Host   fingerprint `json:"host"`
	Result result      `json:"result"`
	Notes  []string    `json:"notes"`
}

var workloads = map[string]func(options) (*report, error){
	"mira-scale":  runMira,
	"io-agg":      runIOAgg,
	"serve-hot":   func(o options) (*report, error) { return runServe(o, serveHot) },
	"ring-faults": func(o options) (*report, error) { return runServe(o, ringFaults) },
}

func main() {
	var o options
	var seconds float64
	var out string
	var compare bool
	flag.StringVar(&o.workload, "workload", "", "mira-scale, io-agg, serve-hot or ring-faults")
	flag.Int64Var(&o.seed, "seed", 0, "input seed (0: the workload's default)")
	flag.Float64Var(&seconds, "seconds", 20, "how long to measure")
	trace := flag.Int("trace", 0, "1: traced run printing the per-layer metrics")
	flag.StringVar(&o.corrupt, "corrupt", "", `break one expected output: "digest" or "plan" (checks the checks)`)
	flag.StringVar(&out, "out", "", "also write the result with its host fingerprint to this file")
	flag.BoolVar(&compare, "compare", false, "compare two --out files: bgqperf --compare a.json b.json")
	flag.Parse()
	if compare {
		os.Exit(runCompare(flag.Args()))
	}
	run, ok := workloads[o.workload]
	if !ok || seconds <= 0 || (*trace != 0 && *trace != 1) || flag.NArg() > 0 ||
		(o.corrupt != "" && o.corrupt != "digest" && o.corrupt != "plan") {
		fmt.Fprintln(os.Stderr, "usage: bgqperf --workload <mira-scale|io-agg|serve-hot|ring-faults> --seed <n> --seconds <s> --trace <0|1>")
		os.Exit(2)
	}
	o.trace = *trace == 1
	o.dur = time.Duration(seconds * float64(time.Second))
	if o.seed == 0 {
		o.seed = map[string]int64{"mira-scale": miraDefaultSeed, "io-agg": ioAggDefaultSeed}[o.workload]
		if o.seed == 0 {
			o.seed = 1
		}
	}
	fp := takeFingerprint(o)
	r, err := run(o)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bgqperf: %s: %v\n", o.workload, err)
		os.Exit(1)
	}
	if r.failed > r.attempted {
		r.failed = r.attempted
	}
	r.e2e["fail_ratio"] = failRatio(r.failed, r.attempted)
	res := result{
		Correct:   r.failed == 0 && len(r.invalidWhy) == 0 && r.attempted > 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   map[string]metric{},
	}
	defs := endToEnd
	vals := r.e2e
	if o.trace {
		defs, vals = perLayer, r.layer
	}
	for _, m := range defs {
		res.Metrics[m.name] = metric{vals[m.name], m.unit}
	}

	hb, _ := json.Marshal(fp)
	fmt.Printf("# host %s\n", hb)
	for _, n := range r.notes {
		fmt.Printf("# %s\n", n)
	}
	for _, why := range r.reasons {
		fmt.Printf("# FAILED: %s\n", why)
	}
	for _, why := range r.invalidWhy {
		fmt.Printf("# INVALID: %s\n", why)
	}
	for _, m := range defs {
		fmt.Printf("%-32s %14.6g %s\n", m.name, vals[m.name], m.unit)
	}
	if out != "" {
		b, _ := json.MarshalIndent(record{fp, res, r.notes}, "", "  ")
		if err := os.WriteFile(out, append(b, '\n'), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "bgqperf: %v\n", err)
			os.Exit(1)
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		// A NaN or Inf metric cannot be encoded: a bug in the benchmark.
		fmt.Fprintf(os.Stderr, "bgqperf: encode result: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// runCompare prints each metric of b as a ratio of a's, refusing when the
// two results come from different hosts.
func runCompare(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: bgqperf --compare a.json b.json")
		return 2
	}
	var recs [2]record
	for i, p := range args {
		b, err := os.ReadFile(p)
		if err == nil {
			err = json.Unmarshal(b, &recs[i])
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "bgqperf: %v\n", err)
			return 2
		}
	}
	a, b := recs[0], recs[1]
	if !a.Host.sameHost(b.Host) {
		fmt.Fprintf(os.Stderr, "bgqperf: refusing to compare results from different hosts:\n  %+v\n  %+v\n", a.Host, b.Host)
		return 3
	}
	if a.Host.Workload != b.Host.Workload || a.Host.Trace != b.Host.Trace {
		fmt.Fprintln(os.Stderr, "bgqperf: refusing to compare different workloads or trace modes")
		return 3
	}
	names := make([]string, 0, len(a.Result.Metrics))
	for n := range a.Result.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Printf("%s: %s (seed %d) -> %s (seed %d)\n", a.Host.Workload, a.Host.Rev, a.Host.Seed, b.Host.Rev, b.Host.Seed)
	for _, n := range names {
		x, y := a.Result.Metrics[n].Value, b.Result.Metrics[n].Value
		ratio := math.NaN()
		if x != 0 {
			ratio = y / x
		}
		fmt.Printf("%-32s %14.6g %14.6g  x%.3f\n", n, x, y, ratio)
	}
	return 0
}
