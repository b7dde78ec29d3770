package main

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"tycoon/internal/client"
	"tycoon/internal/linker"
	"tycoon/internal/machine"
	"tycoon/internal/pipeline"
	"tycoon/internal/reflectopt"
	"tycoon/internal/ship"
	"tycoon/internal/stanford"
	"tycoon/internal/store"
)

// program is one Stanford program with the sizes the calls workload
// passes to its run function and an oracle that computes the answer in
// Go from the program's own arithmetic.
type program struct {
	name   string
	src    string
	sizes  []int64
	oracle func(n int64) int64
}

// The size set is fixed, so every round does the same work whatever the
// seed; the seed draws the order of the calls in each round. The number
// of calls in a round is odd (15), so that the median and the 90th
// percentile of their times fall in the middle of one call's group of
// readings, and the sizes space the calls' costs so that the calls next
// to the median one cost about a tenth less and a tenth more: a median
// next to a wide gap between costs would jump across it whenever a few
// cheap calls ran slow.
var programs = []program{
	{"perm", stanford.PermSrc, []int64{6}, permOracle},
	{"towers", stanford.TowersSrc, []int64{9, 10}, func(n int64) int64 { return 1<<n - 1 }},
	{"queens", stanford.QueensSrc, []int64{6, 7}, queensOracle},
	{"intmm", stanford.IntmmSrc, []int64{10, 12}, intmmOracle},
	{"mm", stanford.MmSrc, []int64{8, 10}, mmOracle},
	{"quick", stanford.QuickSrc, []int64{128, 256}, func(n int64) int64 { return sortOracle(n, 1234) }},
	{"bubble", stanford.BubbleSrc, []int64{40, 60}, func(n int64) int64 { return sortOracle(n, 4711) }},
	{"sieve", stanford.SieveSrc, []int64{800, 2000}, sieveOracle},
}

func permOracle(n int64) int64 {
	f := int64(1)
	for i := int64(2); i <= n; i++ {
		f *= i
	}
	return f
}

func queensOracle(n int64) int64 {
	cols, d1, d2 := make([]bool, n), make([]bool, 2*n), make([]bool, 2*n)
	var place func(r int64) int64
	place = func(r int64) int64 {
		if r == n {
			return 1
		}
		count := int64(0)
		for c := int64(0); c < n; c++ {
			if !cols[c] && !d1[r+c] && !d2[r-c+n] {
				cols[c], d1[r+c], d2[r-c+n] = true, true, true
				count += place(r + 1)
				cols[c], d1[r+c], d2[r-c+n] = false, false, false
			}
		}
		return count
	}
	return place(0)
}

func intmmOracle(n int64) int64 {
	a, b := make([]int64, n*n), make([]int64, n*n)
	for i := range a {
		a[i] = int64(i)%10 - 5
		b[i] = int64(i)%7 - 3
	}
	sum := int64(0)
	for i := int64(0); i < n; i++ {
		for j := int64(0); j < n; j++ {
			s := int64(0)
			for k := int64(0); k < n; k++ {
				s += a[i*n+k] * b[k*n+j]
			}
			sum += s
		}
	}
	return sum
}

func mmOracle(n int64) int64 {
	a, b, c := make([]float64, n*n), make([]float64, n*n), make([]float64, n*n)
	for i := range a {
		a[i] = float64(i%10) / 10.0
		b[i] = float64(i%7) / 7.0
	}
	for i := int64(0); i < n; i++ {
		for j := int64(0); j < n; j++ {
			s := 0.0
			for k := int64(0); k < n; k++ {
				s += a[i*n+k] * b[k*n+j]
			}
			c[i*n+j] = s
		}
	}
	sum := 0.0
	for _, x := range c {
		sum += x
	}
	return int64(sum * 1000.0)
}

// sortOracle fills the array from the programs' LCG and returns their
// checksum of a sorted array: 1000000 + first%1000 + last%1000.
func sortOracle(n, seed int64) int64 {
	a := make([]int64, n)
	for i := range a {
		seed = (seed*1309 + 13849) % 65536
		a[i] = seed
	}
	sort.Slice(a, func(i, j int) bool { return a[i] < a[j] })
	return 1000000 + a[0]%1000 + a[n-1]%1000
}

func sieveOracle(n int64) int64 {
	composite := make([]bool, n+1)
	count := int64(0)
	for i := int64(2); i <= n; i++ {
		if !composite[i] {
			count++
			for k := i + i; k <= n; k += i {
				composite[k] = true
			}
		}
	}
	return count
}

// callsBench CALLs the eight Stanford programs, each program's run
// reflectively optimized once during set-up.
type callsBench struct {
	deployment
	rng   *rand.Rand
	calls []callCase
}

type callCase struct {
	prog int
	n    int64
	want int64
}

func newCalls(seed int64) *callsBench {
	b := &callsBench{rng: rand.New(rand.NewSource(seed))}
	for p, prog := range programs {
		for _, n := range prog.sizes {
			b.calls = append(b.calls, callCase{prog: p, n: n, want: prog.oracle(n)})
		}
	}
	return b
}

func (b *callsBench) deploy() *deployment { return &b.deployment }

func (b *callsBench) setup(dir string) error {
	if err := b.bootSingle(dir, nil); err != nil {
		return err
	}
	for _, p := range programs {
		res, err := b.c.Install(p.src)
		if err != nil {
			return fmt.Errorf("install %s: %w", p.name, err)
		}
		if res.Val.Str != p.name {
			return fmt.Errorf("install %s answered %s", p.name, res.Val.Show())
		}
		if _, err := b.c.Optimize(p.name, "run"); err != nil {
			return fmt.Errorf("optimize %s: %w", p.name, err)
		}
	}
	for _, cc := range b.calls {
		o := b.callOp(cc)
		res, err := o.send(b.c)
		if err != nil {
			return err
		}
		if err := o.check(res); err != nil {
			return err
		}
	}
	return nil
}

func (b *callsBench) callOp(cc callCase) op {
	name := programs[cc.prog].name
	return op{
		verb: ship.VCall,
		send: func(c *client.Client) (*ship.Result, error) {
			return c.Call(name, "run", ship.WVal{Kind: ship.WInt, Int: cc.n})
		},
		check: func(res *ship.Result) error {
			if res.Val.Kind != ship.WInt || res.Val.Int != cc.want {
				return fmt.Errorf("%s.run(%d) = %s, want %d", name, cc.n, res.Val.Show(), cc.want)
			}
			return nil
		},
		replay: func(tr *tracer, id int, _ *ship.Result) (replayOut, error) {
			oid, ok := tr.d.nodes[0].st.Root(linker.ModuleRoot + name)
			if !ok {
				return replayOut{}, fmt.Errorf("module %s not installed", name)
			}
			v, steps, dur, err := tr.execute(id, 0, func(m *machine.Machine) (machine.Value, error) {
				return m.CallExport(oid, "run", []machine.Value{machine.IntValue(cc.n)})
			})
			if err != nil {
				return replayOut{}, err
			}
			ans, err := machineAnswer(v)
			return replayOut{ans: ans, steps: steps, covered: dur}, err
		},
	}
}

func (b *callsBench) round(rc *runCtx) {
	for _, i := range b.rng.Perm(len(b.calls)) {
		rc.exec(b.callOp(b.calls[i]))
	}
}

func (b *callsBench) verifyLive() error { return nil }

// verifyReopened checks that every installed program survived the
// reopen and still computes its oracle's answer.
func (b *callsBench) verifyReopened(stores []*store.Store) error {
	st := stores[0]
	m := machine.New(st)
	for _, cc := range b.calls {
		name := programs[cc.prog].name
		oid, ok := st.Root(linker.ModuleRoot + name)
		if !ok {
			return fmt.Errorf("module %s lost", name)
		}
		v, err := m.CallExport(oid, "run", []machine.Value{machine.IntValue(cc.n)})
		if err != nil {
			return err
		}
		if got, ok := v.(machine.Int); !ok || int64(got) != cc.want {
			return fmt.Errorf("reopened %s.run(%d) = %s, want %d", name, cc.n, v.Show(), cc.want)
		}
	}
	return nil
}

// startTrace installs the same reflective optimization of every run in
// the replay machine that OPTIMIZE installed in the session's machine,
// on an uncached pipeline, timing each.
func (b *callsBench) startTrace(tr *tracer) error {
	n := b.nodes[0]
	ro := reflectopt.New(n.st, reflectopt.Options{Pipe: pipeline.New(n.st, pipeline.Config{CacheEntries: -1})})
	for _, p := range programs {
		oid, ok := n.st.Root(linker.ModuleRoot + p.name)
		if !ok {
			return fmt.Errorf("module %s not installed", p.name)
		}
		mod, ok := n.st.MustGet(oid).(*store.Module)
		if !ok {
			return fmt.Errorf("%s is not a module", p.name)
		}
		run, ok := mod.Lookup("run")
		if !ok || run.Kind != store.ValRef {
			return fmt.Errorf("%s exports no run closure", p.name)
		}
		t := time.Now()
		if _, err := ro.OptimizeAndInstall(tr.machines[0], run.Ref); err != nil {
			return err
		}
		dur := time.Since(t)
		tr.span(-1, "reflectopt."+p.name, "", 0, t, dur)
		tr.l.optimizeMS += float64(dur.Nanoseconds()) / 1e6
		tr.l.optimizes++
	}
	return nil
}
