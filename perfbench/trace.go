package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"tycoon/internal/machine"
	"tycoon/internal/pipeline"
	"tycoon/internal/ptml"
	"tycoon/internal/qopt"
	"tycoon/internal/ship"
	"tycoon/internal/store"
	"tycoon/internal/tml"
)

// span is one timed interval at a layer boundary. Spans of one
// operation share Op; Parent names the enclosing span. A span whose
// start the benchmark cannot see (the server's own verb time, known
// only as a STATS delta) has StartUS -1.
type span struct {
	Op      int     `json:"op"`
	Name    string  `json:"name"`
	Parent  string  `json:"parent,omitempty"`
	Node    int     `json:"node"`
	StartUS float64 `json:"start_us"`
	DurUS   float64 `json:"dur_us"`
}

// replayOut is what the replay of one read produced.
type replayOut struct {
	ans   answer
	steps int64
	// covered is the layer time that explains the client's wait: decode
	// and execution, plus compilation when the server did compile.
	covered time.Duration
}

// tracer keeps the spans and per-layer sums of a traced phase. Replays
// run on an uncached pipeline and a fresh machine per node, over the
// node's own store and relational manager, while the server is idle
// between the session's requests.
type tracer struct {
	d        *deployment
	t0       time.Time
	spans    []span
	nextOp   int
	pipes    []*pipeline.Pipeline
	machines []*machine.Machine
	last     counters // snapshot after the previous request
	l        layerSums
}

type layerSums struct {
	ops, writes, reqs, replays, compiles                int64
	clientUS, respBytes, reqBytes                       float64
	callUS, submitUS                                    int64
	calls, submits                                      int64
	decodeUS, compileUS, sourceUS, codegenUS, encodeUS  float64
	tamInstrs, reduceUS, expandUS, rewrites, nodesAfter float64
	optimizeMS                                          float64
	optimizes                                           int64
	pipeHits, pipeMisses, pipeEvictions                 int64
	steps, vecRows, visited                             int64
	execUS                                              float64
	idxHits, idxBuilds                                  int64
	fsyncs, batchTxns, conflicts                        int64
	shardUS, shardSubmits                               int64
	covered, client                                     time.Duration
}

func newTracer(d *deployment) *tracer {
	tr := &tracer{d: d, t0: time.Now(), last: d.counters()}
	for _, n := range d.nodes {
		tr.pipes = append(tr.pipes, pipeline.New(n.st, pipeline.Config{CacheEntries: -1}))
		m := machine.New(n.st)
		n.srv.Manager().Register(m)
		tr.machines = append(tr.machines, m)
	}
	return tr
}

func (tr *tracer) span(op int, name, parent string, node int, start time.Time, dur time.Duration) {
	st := -1.0
	if !start.IsZero() {
		st = float64(start.Sub(tr.t0).Nanoseconds()) / 1e3
	}
	tr.spans = append(tr.spans, span{Op: op, Name: name, Parent: parent, Node: node,
		StartUS: st, DurUS: float64(dur.Nanoseconds()) / 1e3})
}

// account records one acknowledged request: its client span, the STATS
// deltas, and — for reads — the replay with its parity check.
//
// A server records a verb's time after it has written the response, so
// the record can land after the client's next snapshot. Verb, pipeline
// and store counters are therefore taken as deltas between consecutive
// snapshots, which lose nothing; index counters, which the replay also
// moves, are taken around the request alone (before, after).
func (tr *tracer) account(rc *runCtx, o op, t0 time.Time, lat time.Duration, res *ship.Result, before, after counters) {
	id := tr.nextOp
	tr.nextOp++
	l := &tr.l
	last := tr.last
	tr.last = after
	l.ops++
	l.clientUS += float64(lat.Nanoseconds()) / 1e3
	tr.span(id, "client", "", -1, t0, lat)
	for _, v := range []ship.Verb{ship.VCall, ship.VSubmit} {
		us := after.verbs[v.String()].Micros - last.verbs[v.String()].Micros
		n := after.verbs[v.String()].Count - last.verbs[v.String()].Count
		if n > 0 {
			tr.span(id, "server."+v.String(), "client", -1, time.Time{}, time.Duration(us)*time.Microsecond)
		}
		if v == ship.VCall {
			l.callUS, l.calls = l.callUS+us, l.calls+n
		} else {
			l.submitUS, l.submits = l.submitUS+us, l.submits+n
		}
	}
	if body, err := res.Encode(); err == nil {
		l.respBytes += float64(len(body))
	}
	if o.ptml > 0 {
		l.reqs++
		l.reqBytes += float64(o.ptml)
	}
	l.pipeHits += after.pipe.Hits - last.pipe.Hits
	l.pipeMisses += after.pipe.Misses - last.pipe.Misses
	l.pipeEvictions += after.pipe.Evictions - last.pipe.Evictions
	l.fsyncs += int64(after.batches - last.batches)
	l.batchTxns += int64(after.batchTxns - last.batchTxns)
	l.conflicts += int64(after.conflicts - last.conflicts)
	l.shardUS += after.shardMicros - last.shardMicros
	l.shardSubmits += after.shardCount - last.shardCount
	l.idxHits += after.idx.Hits - before.idx.Hits
	l.idxBuilds += after.idx.Builds - before.idx.Builds
	l.steps += res.Info.Steps
	if o.write {
		l.writes++
		return
	}
	if o.replay == nil {
		return
	}
	out, err := o.replay(tr, id, res)
	if err == nil {
		var got answer
		got, err = wireAnswer(res.Val)
		switch {
		case err != nil:
		case !out.ans.equal(got):
			err = fmt.Errorf("replay answered %s, server %s", out.ans, got)
		case out.steps != res.Info.Steps:
			err = fmt.Errorf("replay took %d steps, server %d", out.steps, res.Info.Steps)
		}
	}
	if err != nil {
		rc.wrong++
		rc.note("replay parity (%s): %v", o.verb, err)
		return
	}
	l.replays++
	l.covered += out.covered
	l.client += lat
}

// replaySubmit re-executes a submitted read on every node the way the
// server's SUBMIT does — canonical hash and decode of the PTML, rebind,
// pipeline job, execution under a transaction — and merges the nodes'
// answers like the coordinator. cacheHit is the server's report; when
// the server compiled, the compilation counts towards the covered time.
func (tr *tracer) replaySubmit(id int, req *ship.Submit, visited int64, cacheHit bool) (replayOut, error) {
	var out replayOut
	parts := make([]answer, len(tr.d.nodes))
	for i, n := range tr.d.nodes {
		l := &tr.l
		t0 := time.Now()
		hash, err := ptml.CanonicalHash(req.PTML)
		if err != nil {
			return out, err
		}
		hashDur := time.Since(t0)
		tr.span(id, "ptml.hash", "client", i, t0, hashDur)

		binds := make(map[string]store.Val, len(req.Binds))
		fp := make([]store.Binding, 0, len(req.Binds))
		for _, b := range req.Binds {
			v, err := storeVal(n.st, b.Val)
			if err != nil {
				return out, err
			}
			binds[b.Name] = v
			fp = append(fp, store.Binding{Name: b.Name, Val: v})
		}
		sort.Slice(fp, func(a, b int) bool { return fp[a].Name < fp[b].Name })
		var decodeDur time.Duration
		job := pipeline.Job{
			Name: req.Name,
			Source: func(gen *tml.VarGen) (*tml.Abs, error) {
				t := time.Now()
				abs, err := rebind(req.PTML, binds, gen)
				decodeDur = time.Since(t)
				tr.span(id, "ptml.decode", "pipeline", i, t, decodeDur)
				return abs, err
			},
			Codegen:       true,
			RequireClosed: true,
			EncodeTAM:     true,
			EncodePTML:    true,
			SkipOptimize:  !req.Optimize,
			Key: pipeline.Key{
				Source:   hash,
				Bindings: pipeline.BindingFingerprint(fp),
				Options:  pipeline.FingerprintOptions("tycd-submit", req.Optimize),
			},
		}
		if req.Optimize {
			job.Packs = []pipeline.RulePack{qopt.RuntimePack(n.st)}
		}
		t1 := time.Now()
		res, err := tr.pipes[i].Run(job)
		compileDur := time.Since(t1)
		if err != nil {
			return out, err
		}
		tr.span(id, "pipeline", "client", i, t1, compileDur)
		l.compiles++
		l.decodeUS += float64((hashDur + decodeDur).Nanoseconds()) / 1e3
		l.compileUS += float64(res.Stats.Total.Nanoseconds()) / 1e3
		lastOpt := -1
		for _, p := range res.Stats.Passes {
			us := float64(p.Duration.Nanoseconds()) / 1e3
			switch {
			case p.Name == "source":
				l.sourceUS += us
			case strings.HasPrefix(p.Name, "reduce"):
				l.reduceUS += us
				lastOpt = p.NodesAfter
			case strings.HasPrefix(p.Name, "expand"):
				l.expandUS += us
				lastOpt = p.NodesAfter
			case p.Name == "codegen":
				l.codegenUS += us
				l.tamInstrs += float64(p.NodesAfter)
			case strings.HasPrefix(p.Name, "encode"):
				l.encodeUS += us
			}
			l.rewrites += float64(p.Rewrites)
		}
		if lastOpt >= 0 {
			l.nodesAfter += float64(lastOpt)
		}

		v, steps, execDur, err := tr.execute(id, i, func(m *machine.Machine) (machine.Value, error) {
			return m.Apply(res.Closure, nil)
		})
		if err != nil {
			return out, err
		}
		if parts[i], err = machineAnswer(v); err != nil {
			return out, err
		}
		out.steps += steps
		nodeCovered := hashDur + decodeDur + execDur
		if !cacheHit {
			nodeCovered += compileDur - decodeDur
		}
		out.covered = max(out.covered, nodeCovered)
	}
	tr.l.visited += visited
	out.ans = mergeAnswers(parts)
	return out, nil
}

// execute runs fn on node i's replay machine inside a store transaction,
// as a server session does, and reports the value, the steps and the time.
func (tr *tracer) execute(id, i int, fn func(m *machine.Machine) (machine.Value, error)) (machine.Value, int64, time.Duration, error) {
	n, m := tr.d.nodes[i], tr.machines[i]
	txn := n.st.Begin()
	m.Store = txn
	m.ResetProfile()
	t := time.Now()
	v, err := fn(m)
	dur := time.Since(t)
	m.Store = n.st
	txn.Abort()
	tr.span(id, "machine", "client", i, t, dur)
	p := m.Profile()
	tr.l.execUS += float64(dur.Nanoseconds()) / 1e3
	tr.l.vecRows += p.VecRows
	return v, p.Steps, dur, err
}

// storeVal resolves a wire binding against one node's store.
func storeVal(st *store.Store, v ship.WVal) (store.Val, error) {
	switch v.Kind {
	case ship.WInt:
		return store.IntVal(v.Int), nil
	case ship.WRoot:
		oid, ok := st.Root(v.Str)
		if !ok {
			return store.Val{}, fmt.Errorf("no root %q", v.Str)
		}
		return store.RefVal(oid), nil
	}
	return store.Val{}, fmt.Errorf("unsupported binding %s", v.Show())
}

// rebind decodes a submitted application and closes it over its
// bindings and the e/k continuations, as tycd's SUBMIT does.
func rebind(data []byte, binds map[string]store.Val, gen *tml.VarGen) (*tml.Abs, error) {
	app, free, err := ptml.DecodeApp(data, gen)
	if err != nil {
		return nil, err
	}
	var eVar, kVar *tml.Var
	subst := make(map[*tml.Var]tml.Value)
	for _, v := range free {
		switch v.Name {
		case "e":
			eVar = v
			continue
		case "k":
			kVar = v
			continue
		}
		sv, ok := binds[v.Name]
		if !ok {
			return nil, fmt.Errorf("no binding for free variable %s", v.Name)
		}
		switch sv.Kind {
		case store.ValInt:
			subst[v] = tml.Int(sv.Int)
		case store.ValRef:
			subst[v] = tml.NewOid(uint64(sv.Ref))
		default:
			return nil, fmt.Errorf("unsupported binding kind for %s", v.Name)
		}
	}
	if len(subst) > 0 {
		app = tml.SubstMany(app, subst).(*tml.App)
	}
	if eVar == nil {
		eVar = gen.FreshCont("e")
	} else {
		eVar.Cont = true
	}
	if kVar == nil {
		kVar = gen.FreshCont("k")
	} else {
		kVar.Cont = true
	}
	return &tml.Abs{Params: []*tml.Var{eVar, kVar}, Body: app}, nil
}

// writeSpans writes the kept spans as JSON lines.
func (tr *tracer) writeSpans(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range tr.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// metrics derives the per-layer metrics from the traced phase, plus the
// write figures, the wall-clock client figures and the overhead ratio
// from the untraced phase.
func (tr *tracer) metrics(out map[string]metric, plain, traced *runCtx) {
	l := &tr.l
	div := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	put := func(name string, v float64, unit string) { out[name] = metric{Value: v, Unit: unit} }
	ops := float64(l.ops)
	srvUS := float64(l.callUS + l.submitUS)
	put("ship.wire_us", div(l.clientUS-srvUS, ops), "us")
	put("ship.response_bytes", div(l.respBytes, ops), "B")
	put("server.call_us", div(float64(l.callUS), float64(l.calls)), "us")
	put("server.submit_us", div(float64(l.submitUS), float64(l.submits)), "us")
	put("ptml.request_bytes", div(l.reqBytes, float64(l.reqs)), "B")
	put("ptml.decode_us", div(l.decodeUS, float64(l.compiles)), "us")
	put("pipeline.hit_ratio", div(float64(l.pipeHits), float64(l.pipeHits+l.pipeMisses)), "ratio")
	put("pipeline.compiles_per_op", div(float64(l.pipeMisses), ops), "count/op")
	put("pipeline.evictions_per_op", div(float64(l.pipeEvictions), ops), "count/op")
	comp := float64(l.compiles)
	put("pipeline.compile_us", div(l.compileUS, comp), "us")
	put("pipeline.source_us", div(l.sourceUS, comp), "us")
	put("pipeline.codegen_us", div(l.codegenUS, comp), "us")
	put("pipeline.encode_us", div(l.encodeUS, comp), "us")
	put("pipeline.tam_instrs", div(l.tamInstrs, comp), "count")
	put("opt.reduce_us", div(l.reduceUS, comp), "us")
	put("opt.expand_us", div(l.expandUS, comp), "us")
	put("opt.rewrites_per_compile", div(l.rewrites, comp), "count")
	put("opt.nodes_after", div(l.nodesAfter, comp), "count")
	put("reflectopt.optimize_ms", div(l.optimizeMS, float64(l.optimizes)), "ms")
	reads := float64(l.ops - l.writes)
	put("machine.steps_per_op", div(float64(l.steps), ops), "count/op")
	put("machine.exec_us", div(l.execUS, float64(l.replays)), "us")
	put("relalg.vec_rows_per_op", div(float64(l.vecRows), reads), "count/op")
	put("relalg.vec_ratio", div(float64(l.vecRows), float64(l.visited)), "ratio")
	put("relalg.index_hits_per_op", div(float64(l.idxHits), ops), "count/op")
	put("relalg.index_rebuilds_per_op", div(float64(l.idxBuilds), ops), "count/op")
	put("store.fsyncs_per_write", div(float64(l.fsyncs), float64(l.writes)), "count/op")
	put("store.txns_per_fsync", div(float64(l.batchTxns), float64(l.fsyncs)), "count")
	put("store.conflicts_per_op", div(float64(l.conflicts), ops), "count/op")
	put("store.write_p50_ms", percentileMS(plain.writes, 0.50), "ms")
	put("store.write_p90_ms", percentileMS(plain.writes, 0.90), "ms")
	put("store.log_bytes_per_write", div(float64(plain.logGrowth), float64(len(plain.writes))), "B")
	shardUS := div(float64(l.shardUS), float64(l.shardSubmits))
	if l.shardSubmits > 0 {
		put("cluster.coord_self_us", div(float64(l.submitUS), float64(l.submits))-shardUS, "us")
	} else {
		put("cluster.coord_self_us", 0, "us")
	}
	put("cluster.shard_submit_us", shardUS, "us")
	put("cluster.fanout_per_op", div(float64(l.shardSubmits), ops), "count/op")
	put("trace.covered_ratio", div(float64(l.covered), float64(l.client)), "ratio")
	put("trace.overhead_ratio", div(float64(plain.cpuPerOp()), float64(traced.cpuPerOp())), "ratio")
	put("client.wall_throughput_ops", plain.rate(), "ops/s")
	put("client.wall_read_p50_ms", percentileMS(plain.reads, 0.50), "ms")
	put("client.wall_read_p90_ms", percentileMS(plain.reads, 0.90), "ms")
}
