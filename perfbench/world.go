package main

import (
	"fmt"
	"math/rand"
	"sort"

	"tycoon/internal/machine"
	"tycoon/internal/prim"
	"tycoon/internal/ptml"
	"tycoon/internal/relalg"
	"tycoon/internal/ship"
	"tycoon/internal/store"
	"tycoon/internal/tml"
)

// The query data set: a fact relation f(id, grp, val) indexed on id and
// a small dimension relation d(gid, w) with one row per group.
const (
	numGroups = 64
	valRange  = 1000
	poolSize  = 8 // parameter bindings per query shape
)

type fact struct{ id, grp, val int64 }

// world is the generated data plus the parameter pools of the query
// shapes. Everything in it is a function of the seed.
type world struct {
	facts   []fact
	weights []int64 // d.w by gid
	pools   [numShapes][][2]int64
}

func newWorld(seed int64, nfacts int) *world {
	rng := rand.New(rand.NewSource(seed))
	w := &world{facts: make([]fact, nfacts), weights: make([]int64, numGroups)}
	for i := range w.facts {
		w.facts[i] = fact{id: int64(i), grp: rng.Int63n(numGroups), val: rng.Int63n(valRange)}
	}
	for g := range w.weights {
		w.weights[g] = 1 + rng.Int63n(100)
	}
	for s := range w.pools {
		w.pools[s] = make([][2]int64, poolSize)
		for i := range w.pools[s] {
			w.pools[s][i] = shapes[s].draw(rng, w.facts)
		}
	}
	return w
}

// factRow and dimRow are the store rows of the two relations.
func factRow(f fact) []store.Val {
	return []store.Val{store.IntVal(f.id), store.IntVal(f.grp), store.IntVal(f.val)}
}

func (w *world) dimRow(g int) []store.Val {
	return []store.Val{store.IntVal(int64(g)), store.IntVal(w.weights[g])}
}

var (
	factSchema = []store.Column{
		{Name: "id", Type: store.ColInt}, {Name: "grp", Type: store.ColInt}, {Name: "val", Type: store.ColInt},
	}
	dimSchema = []store.Column{{Name: "gid", Type: store.ColInt}, {Name: "w", Type: store.ColInt}}
)

// loadRelations creates f (indexed on id) and d through the server's
// relational manager and fills them.
func (w *world) loadRelations(mg *relalg.Manager, facts []fact) error {
	foid, err := mg.CreateRelation("f", factSchema, 0)
	if err != nil {
		return err
	}
	for _, f := range facts {
		if err := mg.InsertRow(foid, factRow(f)); err != nil {
			return err
		}
	}
	doid, err := mg.CreateRelation("d", dimSchema)
	if err != nil {
		return err
	}
	for g := range w.weights {
		if err := mg.InsertRow(doid, w.dimRow(g)); err != nil {
			return err
		}
	}
	return nil
}

// --- query shapes ----------------------------------------------------------

// A shape is one query the scans, ingest and scatter workloads submit:
// TML source with free variables r (rel:f), d (rel:d), p1 and p2, a
// scatter merge policy, a parameter draw, and the Go oracle that
// computes its answer from the generated rows without the program.
type shape struct {
	name  string
	src   string
	merge ship.Merge
	draw  func(rng *rand.Rand, facts []fact) [2]int64
	// oracle returns the answer and the rows the query's operators
	// visit (the base of relalg.vec_ratio).
	oracle func(facts []fact, weights []int64, p [2]int64) (answer, int64)
}

const (
	shapeRange = iota
	shapePoint
	shapeProject
	shapeJoin
	shapeExists
	numShapes
)

var shapes = [numShapes]shape{
	shapeRange: {
		name: "range",
		src: `(select proc(x !ce !cc)
  ([] x 2 cont(v)
    (>= v p1 cont() (< v p2 cont() (cc true) cont() (cc false)) cont() (cc false)))
  r e cont(s) (count s e k))`,
		merge: ship.MergeSum,
		draw: func(rng *rand.Rand, _ []fact) [2]int64 {
			lo := rng.Int63n(valRange - 100)
			return [2]int64{lo, lo + 100}
		},
		oracle: func(facts []fact, _ []int64, p [2]int64) (answer, int64) {
			n := int64(0)
			for _, f := range facts {
				if f.val >= p[0] && f.val < p[1] {
					n++
				}
			}
			return answer{kind: 'i', i: n}, int64(len(facts))
		},
	},
	shapePoint: {
		name: "point",
		src: `(select proc(x !ce !cc)
  ([] x 0 cont(t) (== t p1 cont() (cc true) cont() (cc false)))
  r e k)`,
		draw: func(rng *rand.Rand, facts []fact) [2]int64 { return [2]int64{rng.Int63n(int64(len(facts)))} },
		oracle: func(facts []fact, _ []int64, p [2]int64) (answer, int64) {
			a := answer{kind: 'r'}
			for _, f := range facts {
				if f.id == p[0] {
					a.rows = append(a.rows, []int64{f.id, f.grp, f.val})
				}
			}
			return a.sorted(), int64(len(a.rows))
		},
	},
	shapeProject: {
		name: "project",
		src: `(select proc(x !ce !cc)
  ([] x 1 cont(g) (== g p1 cont() (cc true) cont() (cc false)))
  r e cont(s)
  (project proc(y !ce2 !cc2)
    ([] y 0 cont(a) ([] y 2 cont(b) (* b p2 ce2 cont(c) (vector a c cont(row) (cc2 row)))))
    s e k))`,
		draw: func(rng *rand.Rand, _ []fact) [2]int64 { return [2]int64{rng.Int63n(numGroups), 2 + rng.Int63n(8)} },
		oracle: func(facts []fact, _ []int64, p [2]int64) (answer, int64) {
			a := answer{kind: 'r'}
			for _, f := range facts {
				if f.grp == p[0] {
					a.rows = append(a.rows, []int64{f.id, f.val * p[1]})
				}
			}
			return a.sorted(), int64(len(facts) + len(a.rows))
		},
	},
	shapeJoin: {
		name: "join",
		src: `(select proc(x !ce !cc)
  ([] x 1 cont(g) (== g p1 cont() (cc true) cont() (cc false)))
  r e cont(s)
  (join proc(y !ce2 !cc2)
    ([] y 1 cont(a) ([] y 3 cont(b) (== a b cont() (cc2 true) cont() (cc2 false))))
    s d e k))`,
		draw: func(rng *rand.Rand, _ []fact) [2]int64 { return [2]int64{rng.Int63n(numGroups)} },
		oracle: func(facts []fact, weights []int64, p [2]int64) (answer, int64) {
			a := answer{kind: 'r'}
			for _, f := range facts {
				if f.grp == p[0] {
					a.rows = append(a.rows, []int64{f.id, f.grp, f.val, f.grp, weights[f.grp]})
				}
			}
			return a.sorted(), int64(len(facts) + len(a.rows)*len(weights))
		},
	},
	shapeExists: {
		name: "exists",
		src: `(exists proc(x !ce !cc)
  ([] x 1 cont(g)
    (== g p2 cont() ([] x 2 cont(v) (== v p1 cont() (cc true) cont() (cc false))) cont() (cc false)))
  r e k)`,
		merge: ship.MergeAny,
		// Half the pool is the (val, grp) pair of a row among the last 1%
		// of f that holds it first, the other half a pair no row holds:
		// either way the scan visits (nearly) every row, so exists costs
		// what range and project cost, whatever the seed draws.
		draw: func(rng *rand.Rand, facts []fact) [2]int64 {
			first := make(map[[2]int64]int, len(facts))
			for i := len(facts) - 1; i >= 0; i-- {
				first[[2]int64{facts[i].val, facts[i].grp}] = i
			}
			if rng.Intn(2) == 0 {
				tail := max(1, len(facts)/100)
				for {
					i := len(facts) - 1 - rng.Intn(tail)
					p := [2]int64{facts[i].val, facts[i].grp}
					if first[p] == i {
						return p
					}
				}
			}
			for {
				p := [2]int64{rng.Int63n(valRange), rng.Int63n(numGroups)}
				if _, ok := first[p]; !ok {
					return p
				}
			}
		},
		oracle: func(facts []fact, _ []int64, p [2]int64) (answer, int64) {
			for i, f := range facts {
				if f.val == p[0] && f.grp == p[1] {
					return answer{kind: 'b', b: true}, int64(i + 1)
				}
			}
			return answer{kind: 'b'}, int64(len(facts))
		},
	},
}

// mustEncodeTML parses a TML application and encodes it as PTML, the
// form a client ships. The sources are constants of this program, so a
// failure is a bug here.
func mustEncodeTML(src string) []byte {
	app, err := tml.ParseApp(src, tml.ParseOpts{IsPrim: prim.IsPrim})
	if err == nil {
		var data []byte
		if data, err = ptml.EncodeApp(app); err == nil {
			return data
		}
	}
	panic(fmt.Sprintf("encoding %q: %v", src, err))
}

// shapeBinds is the binding table of one shape request.
func shapeBinds(p [2]int64) []ship.WBind {
	return []ship.WBind{
		{Name: "r", Val: ship.WVal{Kind: ship.WRoot, Str: "rel:f"}},
		{Name: "d", Val: ship.WVal{Kind: ship.WRoot, Str: "rel:d"}},
		{Name: "p1", Val: ship.WVal{Kind: ship.WInt, Int: p[0]}},
		{Name: "p2", Val: ship.WVal{Kind: ship.WInt, Int: p[1]}},
	}
}

// --- answers ---------------------------------------------------------------

// answer is a result in a form both the wire and the machine values
// convert to: an integer, a boolean, or a relation of integer rows kept
// sorted so that row order (scan order, shard order) does not matter.
type answer struct {
	kind byte // 'i', 'b', 'r', 'u' (unit)
	i    int64
	b    bool
	rows [][]int64
}

func (a answer) sorted() answer {
	sort.Slice(a.rows, func(x, y int) bool { return lessRow(a.rows[x], a.rows[y]) })
	return a
}

func lessRow(a, b []int64) bool {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return len(a) < len(b)
}

func (a answer) equal(b answer) bool {
	if a.kind != b.kind || a.i != b.i || a.b != b.b || len(a.rows) != len(b.rows) {
		return false
	}
	for i := range a.rows {
		if len(a.rows[i]) != len(b.rows[i]) {
			return false
		}
		for j := range a.rows[i] {
			if a.rows[i][j] != b.rows[i][j] {
				return false
			}
		}
	}
	return true
}

func (a answer) String() string {
	switch a.kind {
	case 'i':
		return fmt.Sprintf("%d", a.i)
	case 'b':
		return fmt.Sprintf("%t", a.b)
	case 'u':
		return "()"
	}
	if len(a.rows) > 3 {
		return fmt.Sprintf("rel(%d rows, first %v)", len(a.rows), a.rows[0])
	}
	return fmt.Sprintf("rel%v", a.rows)
}

func wireAnswer(v ship.WVal) (answer, error) {
	switch v.Kind {
	case ship.WInt:
		return answer{kind: 'i', i: v.Int}, nil
	case ship.WBool:
		return answer{kind: 'b', b: v.Bool}, nil
	case ship.WNil:
		return answer{kind: 'u'}, nil
	case ship.WRel:
		a := answer{kind: 'r'}
		for _, row := range v.Rel.Rows {
			out := make([]int64, len(row))
			for i, f := range row {
				if f.Kind != ship.WInt {
					return answer{}, fmt.Errorf("non-integer field %s", f.Show())
				}
				out[i] = f.Int
			}
			a.rows = append(a.rows, out)
		}
		return a.sorted(), nil
	}
	return answer{}, fmt.Errorf("unexpected result %s", v.Show())
}

func machineAnswer(v machine.Value) (answer, error) {
	switch v := v.(type) {
	case machine.Int:
		return answer{kind: 'i', i: int64(v)}, nil
	case machine.Bool:
		return answer{kind: 'b', b: bool(v)}, nil
	case machine.Unit:
		return answer{kind: 'u'}, nil
	case *relalg.Rel:
		a := answer{kind: 'r'}
		for _, row := range v.Rows {
			out := make([]int64, len(row))
			for i, f := range row {
				if f.Kind != store.ValInt {
					return answer{}, fmt.Errorf("non-integer field %s", f)
				}
				out[i] = f.Int
			}
			a.rows = append(a.rows, out)
		}
		return a.sorted(), nil
	}
	return answer{}, fmt.Errorf("unexpected result %s", v.Show())
}

// mergeAnswers combines per-shard answers the way the coordinator's
// merge policies do: integers sum, booleans or, relations concatenate.
func mergeAnswers(parts []answer) answer {
	out := parts[0]
	for _, p := range parts[1:] {
		out.i += p.i
		out.b = out.b || p.b
		out.rows = append(out.rows, p.rows...)
	}
	if out.kind == 'r' {
		out = out.sorted()
	}
	return out
}
