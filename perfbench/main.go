// Command perfbench is the repository's end-to-end benchmark. It boots
// tycd — or, for the scatter workload, a tycc coordinator over three
// tycd shards — inside its own process on loopback listeners, drives
// one workload from one closed-loop client session for a fixed time,
// checks every answer against a computation made in Go without the
// program, and prints one JSON line: with -trace 0 the end-to-end
// metrics, with -trace 1 the per-layer metrics of a traced run that
// replays each read through the layers' public functions.
//
// Run it through run.sh from the repository root; README.md lists the
// workloads, the metrics and how to read them.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"tycoon/internal/client"
	"tycoon/internal/fsck"
	"tycoon/internal/ship"
	"tycoon/internal/store"
)

// Set-up and reopen are each repeated at least minRepeats times and
// until repeatFor has passed (at most maxRepeats times); the metric is
// the median, so a short set-up is measured as often as a long one is.
// Each repetition starts after a forced GC, so that no repetition pays
// for the garbage of the one before, and after calibPerRepeat
// calibrations. The measured phase calibrates after the round in which
// calibEvery has passed since its last calibration.
//
// Every end-to-end time is process CPU time scaled to a reference
// speed (see cpuclock.go). Wall-clock figures are per-layer metrics of
// the traced run.
const (
	minRepeats     = 3
	maxRepeats     = 1000
	repeatFor      = 2 * time.Second
	calibPerRepeat = 3
	calibEvery     = 50 * time.Millisecond
)

// workload is one traffic mix against one deployment.
type workload interface {
	deploy() *deployment
	// setup boots the deployment under dir, loads its data, installs
	// and optimizes its code, and warms it up.
	setup(dir string) error
	// round issues one round of operations through rc: the same
	// operations, in a seeded order with seeded parameters, every round.
	round(rc *runCtx)
	// verifyLive checks the end state over the wire after the run.
	verifyLive() error
	// verifyReopened checks the end state in the stores reopened from
	// their files after the deployment stopped.
	verifyReopened(stores []*store.Store) error
	// startTrace prepares the replay of reads through the layers.
	startTrace(tr *tracer) error
}

func newWorkload(name string, seed int64) (workload, error) {
	switch name {
	case "calls":
		return newCalls(seed), nil
	case "scans":
		return newScans(seed, 1), nil
	case "scatter":
		return newScans(seed, numShards), nil
	case "ingest":
		return newIngest(seed), nil
	}
	return nil, fmt.Errorf("unknown workload %q (calls, scans, ingest, scatter)", name)
}

// op is one client request with its independent check and, for reads in
// a traced run, its replay through the layers.
type op struct {
	write bool
	verb  ship.Verb
	ptml  int // bytes of shipped PTML (submits)
	send  func(c *client.Client) (*ship.Result, error)
	check func(res *ship.Result) error
	// replay re-executes a read through the layers' public functions.
	replay func(tr *tracer, id int, res *ship.Result) (replayOut, error)
}

// runCtx executes and records the operations of one measured phase.
type runCtx struct {
	d         *deployment
	tr        *tracer // nil in an untraced phase
	start     time.Time
	reads     []time.Duration // wall-clock latency of reads
	writes    []time.Duration // wall-clock latency of writes
	cpuReads  []time.Duration // CPU time the process spent per read
	cpu       time.Duration   // CPU time of the whole phase, less calibration
	speed     speed
	attempted int64
	failed    int64
	wrong     int64
	notes     []string
	elapsed   time.Duration
	logGrowth int64
}

func (rc *runCtx) note(format string, args ...any) {
	if len(rc.notes) < 5 {
		rc.notes = append(rc.notes, fmt.Sprintf(format, args...))
	}
}

func (rc *runCtx) exec(o op) {
	var before counters
	if rc.tr != nil {
		before = rc.d.counters()
	}
	c0 := cpuNow()
	t0 := time.Now()
	res, err := o.send(rc.d.c)
	lat := time.Since(t0)
	clat := cpuNow() - c0
	rc.attempted++
	if err != nil {
		rc.failed++
		rc.note("%s failed: %v", o.verb, err)
		return
	}
	if o.write {
		rc.writes = append(rc.writes, lat)
	} else {
		rc.reads = append(rc.reads, lat)
		rc.cpuReads = append(rc.cpuReads, clat)
	}
	if rc.tr != nil {
		rc.tr.account(rc, o, t0, lat, res, before, rc.d.counters())
	}
	if err := o.check(res); err != nil {
		rc.wrong++
		rc.note("wrong answer: %v", err)
	}
}

// measure runs whole rounds until dur has passed.
func measure(w workload, rc *runCtx, dur time.Duration) error {
	paths := w.deploy().paths()
	size0, err := filesSize(paths)
	if err != nil {
		return err
	}
	runtime.GC()
	rc.speed.sample(calibPerRepeat)
	rc.start = time.Now()
	calibrated := rc.start
	for time.Since(rc.start) < dur {
		c0 := cpuNow()
		w.round(rc)
		rc.cpu += cpuNow() - c0
		if time.Since(calibrated) >= calibEvery {
			rc.speed.sample(1)
			calibrated = time.Now()
		}
	}
	rc.elapsed = time.Since(rc.start)
	size1, err := filesSize(paths)
	rc.logGrowth = size1 - size0
	return err
}

// rate is the phase's acknowledged operations per wall-clock second.
func (rc *runCtx) rate() float64 {
	return float64(rc.attempted-rc.failed) / rc.elapsed.Seconds()
}

// cpuPerOp is the phase's process CPU time per acknowledged operation,
// at the reference speed.
func (rc *runCtx) cpuPerOp() time.Duration {
	return rc.speed.scale(rc.cpu / time.Duration(max(1, rc.attempted-rc.failed)))
}

// cpuReadPercentileMS is a percentile of the reads' CPU times at the
// reference speed, in ms.
func (rc *runCtx) cpuReadPercentileMS(q float64) float64 {
	return msOf(rc.speed.scale(time.Duration(percentileMS(rc.cpuReads, q) * float64(time.Millisecond))))
}

func filesSize(paths []string) (int64, error) {
	var n int64
	for _, p := range paths {
		fi, err := os.Stat(p)
		if err != nil {
			return 0, err
		}
		n += fi.Size()
	}
	return n, nil
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type output struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	dir      string
}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "calls, scans, ingest or scatter")
	flag.Int64Var(&o.seed, "seed", 1, "seed of the generated inputs")
	flag.Float64Var(&o.seconds, "seconds", 25, "length of the measured phase")
	flag.IntVar(&trace, "trace", 0, "1: traced run printing the per-layer metrics")
	flag.StringVar(&o.dir, "dir", ".bench_build/perfbench", "directory for the run's stores and spans")
	flag.Parse()
	o.trace = trace == 1
	// One P: the one closed-loop session never has two requests in
	// flight, and with a second P every hand-off between the client's
	// and the servers' goroutines wakes another thread, whose spinning
	// and wake-up cost follow the host's load rather than the program.
	runtime.GOMAXPROCS(1)
	initCalibration()
	out, err := run(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

func run(o options) (*output, error) {
	w, err := newWorkload(o.workload, o.seed)
	if err != nil {
		return nil, err
	}
	base := filepath.Join(o.dir, fmt.Sprintf("run-%s-%d", o.workload, os.Getpid()))
	defer os.RemoveAll(base)

	// Set up several times and keep the last deployment: setup_s is the
	// median, so one slow set-up does not decide the figure. A traced
	// run reports no setup_s and sets up once.
	var setups []float64
	var setupSpeed speed
	for i, began := 0, time.Now(); ; i++ {
		dir := filepath.Join(base, fmt.Sprint(i))
		if i > 0 {
			w, _ = newWorkload(o.workload, o.seed)
		}
		runtime.GC()
		setupSpeed.sample(calibPerRepeat)
		c0 := cpuNow()
		err := w.setup(dir)
		setups = append(setups, (cpuNow() - c0).Seconds())
		if err != nil {
			w.deploy().stop()
			return nil, fmt.Errorf("setup: %w", err)
		}
		if o.trace || !again(i+1, began) {
			break
		}
		if err := w.deploy().stop(); err != nil {
			return nil, err
		}
		os.RemoveAll(dir)
	}
	d := w.deploy()
	stopped := false
	defer func() {
		if !stopped {
			d.stop()
		}
	}()

	dur := time.Duration(o.seconds * float64(time.Second))
	plain := &runCtx{d: d}
	var traced *runCtx
	var tr *tracer
	if o.trace {
		// Half the time untraced, half traced: the ratio of the two
		// phases' CPU time per operation is the tracing overhead.
		if err := measure(w, plain, dur/2); err != nil {
			return nil, err
		}
		tr = newTracer(d)
		if err := w.startTrace(tr); err != nil {
			return nil, fmt.Errorf("trace: %w", err)
		}
		traced = &runCtx{d: d, tr: tr}
		if err := measure(w, traced, dur/2); err != nil {
			return nil, err
		}
		if err := tr.writeSpans(filepath.Join(o.dir, fmt.Sprintf("spans-%s-%d.jsonl", o.workload, o.seed))); err != nil {
			return nil, err
		}
	} else if err := measure(w, plain, dur); err != nil {
		return nil, err
	}

	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	heapMB := float64(ms.HeapAlloc-calibBytes) / (1 << 20)

	var problems []error
	if err := w.verifyLive(); err != nil {
		problems = append(problems, fmt.Errorf("end state: %w", err))
	}
	paths := d.paths()
	stopped = true
	if err := d.stop(); err != nil {
		return nil, fmt.Errorf("stop: %w", err)
	}
	reopen, reopenCalib, err := reopenStores(w, paths, &problems)
	if err != nil {
		return nil, err
	}
	for _, p := range paths {
		rep, err := fsck.CheckPath(p)
		if err != nil {
			return nil, err
		}
		if !rep.OK() {
			problems = append(problems, fmt.Errorf("fsck %s: %d errors", p, rep.Errors()))
		}
	}

	out := &output{Correct: true, Metrics: map[string]metric{}}
	for _, rc := range []*runCtx{plain, traced} {
		if rc == nil {
			continue
		}
		out.Attempted += rc.attempted
		out.Failed += rc.failed
		if rc.wrong > 0 {
			problems = append(problems, fmt.Errorf("%d wrong answers: %v", rc.wrong, rc.notes))
		} else if rc.failed > 0 {
			fmt.Fprintln(os.Stderr, "perfbench: failed operations:", rc.notes)
		}
	}
	if len(problems) > 0 {
		out.Correct = false
		fmt.Fprintln(os.Stderr, "perfbench:", errors.Join(problems...))
	}
	if o.trace {
		tr.metrics(out.Metrics, plain, traced)
		return out, nil
	}
	put := func(name string, v float64, unit string) { out.Metrics[name] = metric{Value: v, Unit: unit} }
	fmt.Fprintf(os.Stderr, "perfbench: median calibration %.4f ms in set-up, %.4f ms in the run, %.4f ms in reopen (reference %.4f ms)\n",
		msOf(setupSpeed.calib()), msOf(plain.speed.calib()), msOf(reopenCalib), msOf(refCalib))
	put("setup_s", setupSpeed.scale(time.Duration(median(setups)*float64(time.Second))).Seconds(), "s")
	put("op_cpu_ms", msOf(plain.cpuPerOp()), "ms")
	put("read_cpu_p50_ms", plain.cpuReadPercentileMS(0.50), "ms")
	put("read_cpu_p90_ms", plain.cpuReadPercentileMS(0.90), "ms")
	put("heap_mb", heapMB, "MB")
	put("reopen_s", reopen, "s")
	return out, nil
}

// again reports whether a repeated measurement goes on after n rounds
// that began at began.
func again(n int, began time.Time) bool {
	return n < minRepeats || (n < maxRepeats && time.Since(began) < repeatFor)
}

// reopenStores times reopening every store of the deployment from its
// files, repeatedly, checks the end state in the first reopen, and
// returns the median CPU time at the reference speed and the median
// calibration time.
func reopenStores(w workload, paths []string, problems *[]error) (float64, time.Duration, error) {
	var times []float64
	var sp speed
	for i, began := 0, time.Now(); i == 0 || again(i, began); i++ {
		runtime.GC()
		sp.sample(calibPerRepeat)
		c0 := cpuNow()
		stores := make([]*store.Store, 0, len(paths))
		for _, p := range paths {
			st, err := store.Open(p)
			if err != nil {
				return 0, 0, fmt.Errorf("reopen %s: %w", p, err)
			}
			stores = append(stores, st)
		}
		times = append(times, (cpuNow() - c0).Seconds())
		if i == 0 {
			if err := w.verifyReopened(stores); err != nil {
				*problems = append(*problems, fmt.Errorf("after reopen: %w", err))
			}
		}
		for _, st := range stores {
			if err := st.Close(); err != nil {
				return 0, 0, err
			}
		}
	}
	return sp.scale(time.Duration(median(times) * float64(time.Second))).Seconds(), sp.calib(), nil
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func msOf(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// percentileMS is the nearest-rank percentile of the latencies, in ms;
// 0 when there are none.
func percentileMS(lat []time.Duration, q float64) float64 {
	if len(lat) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), lat...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return msOf(s[i])
}
