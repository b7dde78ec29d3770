package main

import (
	"fmt"
	"math/rand"

	"tycoon/internal/client"
	"tycoon/internal/cluster"
	"tycoon/internal/server"
	"tycoon/internal/ship"
	"tycoon/internal/store"
)

const (
	scanFacts = 20000 // rows of f in scans and scatter
	numShards = 3     // tycd shards behind the scatter coordinator
)

// scanBench SUBMITs the five query shapes with optimization on. With
// one node it talks to tycd directly (scans); with several it talks to
// a tycc coordinator that scatters every shape to the shards holding
// disjoint parts of f, each with a full copy of d (scatter).
type scanBench struct {
	deployment
	w      *world
	shards int
	seed   int64
	rng    *rand.Rand
	ptml   [numShapes][]byte
	want   [numShapes][poolSize]answer
	visits [numShapes][poolSize]int64
}

func newScans(seed int64, shards int) *scanBench {
	b := &scanBench{
		w:      newWorld(seed, scanFacts),
		shards: shards,
		seed:   seed,
		rng:    rand.New(rand.NewSource(seed + 1)),
	}
	for s := range shapes {
		b.ptml[s] = mustEncodeTML(shapes[s].src)
		for i, p := range b.w.pools[s] {
			b.want[s][i], b.visits[s][i] = shapes[s].oracle(b.w.facts, b.w.weights, p)
		}
	}
	return b
}

func (b *scanBench) deploy() *deployment { return &b.deployment }

func (b *scanBench) setup(dir string) error {
	if b.shards == 1 {
		if err := b.bootSingle(dir, func(srv *server.Server) error {
			return b.w.loadRelations(srv.Manager(), b.w.facts)
		}); err != nil {
			return err
		}
	} else {
		// Rows go to the shard the topology's own placement picks, so the
		// split is the one a routed write of row:<id> would make.
		topo := cluster.Topology{Shards: make([]cluster.Shard, b.shards)}
		parts := make([][]fact, b.shards)
		for _, f := range b.w.facts {
			s := topo.ShardFor(fmt.Sprintf("row:%d", f.id))
			parts[s] = append(parts[s], f)
		}
		loads := make([]func(*server.Server) error, b.shards)
		for i := range loads {
			part := parts[i]
			loads[i] = func(srv *server.Server) error { return b.w.loadRelations(srv.Manager(), part) }
		}
		if err := b.bootCluster(dir, loads, b.seed); err != nil {
			return err
		}
	}
	// Warm-up: every (shape, binding) pair once, so the timed rounds see
	// a warm pipeline cache on every node.
	for s := range shapes {
		for i := range b.w.pools[s] {
			o := b.readOp(s, i)
			res, err := o.send(b.c)
			if err != nil {
				return err
			}
			if err := o.check(res); err != nil {
				return err
			}
		}
	}
	return nil
}

func (b *scanBench) readOp(s, i int) op {
	return shapeOp(s, b.w.pools[s][i], b.ptml[s], b.want[s][i], b.visits[s][i])
}

// shapeOp is one read of a query shape with the answer the oracle
// expects.
func shapeOp(s int, p [2]int64, data []byte, want answer, visits int64) op {
	req := &ship.Submit{
		Name:     shapes[s].name,
		PTML:     data,
		Binds:    shapeBinds(p),
		Optimize: true,
		Merge:    shapes[s].merge,
	}
	return op{
		verb: ship.VSubmit,
		ptml: len(data),
		send: func(c *client.Client) (*ship.Result, error) { return c.Submit(req) },
		check: func(res *ship.Result) error {
			if res.Partial {
				return fmt.Errorf("%s%v: partial answer, missing %v", shapes[s].name, p, res.Missing)
			}
			got, err := wireAnswer(res.Val)
			if err != nil {
				return err
			}
			if !got.equal(want) {
				return fmt.Errorf("%s%v = %s, want %s", shapes[s].name, p, got, want)
			}
			return nil
		},
		replay: func(tr *tracer, id int, res *ship.Result) (replayOut, error) {
			return tr.replaySubmit(id, req, visits, res.Info.CacheHit)
		},
	}
}

func (b *scanBench) round(rc *runCtx) {
	for _, s := range b.rng.Perm(numShapes) {
		rc.exec(b.readOp(s, b.rng.Intn(poolSize)))
	}
}

func (b *scanBench) verifyLive() error { return nil }

// verifyReopened checks that the reopened stores hold exactly the
// generated rows of f, split over the shards.
func (b *scanBench) verifyReopened(stores []*store.Store) error {
	n := 0
	for _, st := range stores {
		rows, err := relationRows(st, "rel:f")
		if err != nil {
			return err
		}
		for _, r := range rows {
			f := b.w.facts[r[0]]
			if r[1] != f.grp || r[2] != f.val {
				return fmt.Errorf("reopened row %v, generated %v", r, f)
			}
		}
		n += len(rows)
	}
	if n != len(b.w.facts) {
		return fmt.Errorf("reopened stores hold %d rows of f, want %d", n, len(b.w.facts))
	}
	return nil
}

func (b *scanBench) startTrace(*tracer) error { return nil }

// relationRows reads a relation's rows straight from a store.
func relationRows(st *store.Store, root string) ([][]int64, error) {
	oid, ok := st.Root(root)
	if !ok {
		return nil, fmt.Errorf("no root %s", root)
	}
	rel, ok := st.MustGet(oid).(*store.Relation)
	if !ok {
		return nil, fmt.Errorf("%s is not a relation", root)
	}
	var out [][]int64
	for _, row := range rel.RowsSnapshot() {
		r := make([]int64, len(row))
		for i, v := range row {
			r[i] = v.Int
		}
		out = append(out, r)
	}
	return out, nil
}
