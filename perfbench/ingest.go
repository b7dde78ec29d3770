package main

import (
	"fmt"
	"math/rand"
	"time"

	"tycoon/internal/client"
	"tycoon/internal/machine"
	"tycoon/internal/server"
	"tycoon/internal/ship"
	"tycoon/internal/store"
)

const (
	// ingestFacts is the initial size of f in ingest. It is smaller than
	// in scans because every committed insert logs the whole relation
	// (see CHANGES.md), so the log grows with the relation's size.
	ingestFacts = 2000
	// saveSlots bounds the srv: roots the keyed saves overwrite.
	saveSlots = 8
	// Writes are paced (see round): a save falls due every saveEvery and
	// an insert every insertEvery from the start of the phase.
	saveEvery   = 5 * time.Millisecond
	insertEvery = 100 * time.Millisecond
)

const (
	saveSrc   = `(+ p1 p2 e cont(n) (k n))`
	insertSrc = `(vector p1 p2 p3 cont(row) (rinsert r row e k))`
	allRowSrc = `(select proc(x !ce !cc) (cc true) r e k)`
)

// ingestBench interleaves keyed saving SUBMITs, rinsert SUBMITs into f
// and reads of the query shapes on one file-backed tycd. The oracle
// state is what the server acknowledged: the rows of f and the last
// value saved under each slot.
type ingestBench struct {
	deployment
	w     *world
	seed  int64
	rng   *rand.Rand
	ptml  [numShapes][]byte
	save  []byte
	ins   []byte
	facts []fact // loaded plus acknowledged inserts, in insert order
	slots [saveSlots]int64
	saved [saveSlots]bool
	seq   int64
	// phase, saves and inserts count the writes issued in a phase.
	phase          *runCtx
	saves, inserts int
}

func newIngest(seed int64) *ingestBench {
	w := newWorld(seed, ingestFacts)
	b := &ingestBench{
		w:     w,
		seed:  seed,
		rng:   rand.New(rand.NewSource(seed + 2)),
		facts: append([]fact(nil), w.facts...),
		save:  mustEncodeTML(saveSrc),
		ins:   mustEncodeTML(insertSrc),
	}
	for s := range shapes {
		b.ptml[s] = mustEncodeTML(shapes[s].src)
	}
	return b
}

func (b *ingestBench) deploy() *deployment { return &b.deployment }

func (b *ingestBench) setup(dir string) error {
	if err := b.bootSingle(dir, func(srv *server.Server) error {
		return b.w.loadRelations(srv.Manager(), b.w.facts)
	}); err != nil {
		return err
	}
	// Warm-up: every (shape, binding) pair once, then one round, all
	// checked like the timed operations.
	rc := &runCtx{d: &b.deployment}
	for s := range shapes {
		for _, p := range b.w.pools[s] {
			want, visits := shapes[s].oracle(b.facts, b.w.weights, p)
			rc.exec(shapeOp(s, p, b.ptml[s], want, visits))
		}
	}
	b.round(rc)
	if rc.failed > 0 || rc.wrong > 0 {
		return fmt.Errorf("warm-up: %v", rc.notes)
	}
	return nil
}

// round reads each shape once, closed-loop, and before each read
// issues the writes that have fallen due. Writes are paced, not issued
// per round: every save adds objects to the store and a record to the
// log, and every insert logs the whole relation, so if writes rode in
// the rounds the log, and with it reopen_s and heap_mb, would grow with
// the machine's speed. Paced, every run writes the same amount.
func (b *ingestBench) round(rc *runCtx) {
	if rc != b.phase {
		b.phase, b.saves, b.inserts = rc, 0, 0
	}
	for _, s := range b.rng.Perm(numShapes) {
		saves, inserts := 1, 1 // warm-up: no phase clock
		if !rc.start.IsZero() {
			t := time.Since(rc.start)
			saves = int(t/saveEvery) + 1 - b.saves
			inserts = int(t/insertEvery) + 1 - b.inserts
		}
		for ; inserts > 0; inserts-- {
			rc.exec(b.insertOp())
			b.inserts++
		}
		for ; saves > 0; saves-- {
			rc.exec(b.saveOp())
			b.saves++
		}
		p := b.w.pools[s][b.rng.Intn(poolSize)]
		want, visits := shapes[s].oracle(b.facts, b.w.weights, p)
		rc.exec(shapeOp(s, p, b.ptml[s], want, visits))
	}
}

func (b *ingestBench) saveOp() op {
	slot := b.rng.Intn(saveSlots)
	x, y := b.rng.Int63n(1_000_000), b.rng.Int63n(1_000_000)
	b.seq++
	req := &ship.Submit{
		Name:    "save",
		PTML:    b.save,
		Binds:   []ship.WBind{intBind("p1", x), intBind("p2", y)},
		Save:    slotName(slot),
		IdemKey: fmt.Sprintf("perfbench-%d-%d", b.seed, b.seq),
	}
	return op{
		write: true,
		verb:  ship.VSubmit,
		ptml:  len(b.save),
		send:  func(c *client.Client) (*ship.Result, error) { return c.Submit(req) },
		check: func(res *ship.Result) error {
			if res.Val.Kind != ship.WInt || res.Val.Int != x+y {
				return fmt.Errorf("save %s answered %s, want %d", req.Save, res.Val.Show(), x+y)
			}
			b.slots[slot], b.saved[slot] = x+y, true
			return nil
		},
	}
}

func (b *ingestBench) insertOp() op {
	f := fact{id: int64(len(b.facts)), grp: b.rng.Int63n(numGroups), val: b.rng.Int63n(valRange)}
	req := &ship.Submit{
		Name: "insert",
		PTML: b.ins,
		Binds: []ship.WBind{
			{Name: "r", Val: ship.WVal{Kind: ship.WRoot, Str: "rel:f"}},
			intBind("p1", f.id), intBind("p2", f.grp), intBind("p3", f.val),
		},
	}
	return op{
		write: true,
		verb:  ship.VSubmit,
		ptml:  len(b.ins),
		send:  func(c *client.Client) (*ship.Result, error) { return c.Submit(req) },
		check: func(res *ship.Result) error {
			if res.Val.Kind != ship.WNil {
				return fmt.Errorf("insert answered %s", res.Val.Show())
			}
			b.facts = append(b.facts, f)
			return nil
		},
	}
}

func intBind(name string, v int64) ship.WBind {
	return ship.WBind{Name: name, Val: ship.WVal{Kind: ship.WInt, Int: v}}
}

func slotName(slot int) string { return fmt.Sprintf("ing-%d", slot) }

func (b *ingestBench) wantRows() answer {
	a := answer{kind: 'r'}
	for _, f := range b.facts {
		a.rows = append(a.rows, []int64{f.id, f.grp, f.val})
	}
	return a.sorted()
}

// verifyLive reads every saved slot back with CALL and the whole of f
// with a SUBMIT, and compares them with the acknowledged state.
func (b *ingestBench) verifyLive() error {
	for slot, ok := range b.saved {
		if !ok {
			continue
		}
		res, err := b.c.Call("", slotName(slot))
		if err != nil {
			return err
		}
		if res.Val.Kind != ship.WInt || res.Val.Int != b.slots[slot] {
			return fmt.Errorf("slot %d holds %s, last acknowledged %d", slot, res.Val.Show(), b.slots[slot])
		}
	}
	res, err := b.c.SubmitTML("all", allRowSrc,
		[]ship.WBind{{Name: "r", Val: ship.WVal{Kind: ship.WRoot, Str: "rel:f"}}}, false, "")
	if err != nil {
		return err
	}
	got, err := wireAnswer(res.Val)
	if err != nil {
		return err
	}
	if want := b.wantRows(); !got.equal(want) {
		return fmt.Errorf("f holds %d rows, want the %d loaded and acknowledged", len(got.rows), len(want.rows))
	}
	return nil
}

// verifyReopened repeats verifyLive's checks on the reopened store:
// each saved closure is applied by a fresh machine, and f is read
// straight from the store.
func (b *ingestBench) verifyReopened(stores []*store.Store) error {
	st := stores[0]
	m := machine.New(st)
	for slot, ok := range b.saved {
		if !ok {
			continue
		}
		oid, found := st.Root(ship.SavedRoot + slotName(slot))
		if !found {
			return fmt.Errorf("slot %d lost", slot)
		}
		v, err := m.Apply(machine.Ref{OID: oid}, nil)
		if err != nil {
			return err
		}
		if got, isInt := v.(machine.Int); !isInt || int64(got) != b.slots[slot] {
			return fmt.Errorf("reopened slot %d holds %s, last acknowledged %d", slot, v.Show(), b.slots[slot])
		}
	}
	rows, err := relationRows(st, "rel:f")
	if err != nil {
		return err
	}
	got := answer{kind: 'r', rows: rows}.sorted()
	if want := b.wantRows(); !got.equal(want) {
		return fmt.Errorf("reopened f holds %d rows, want %d", len(got.rows), len(want.rows))
	}
	return nil
}

func (b *ingestBench) startTrace(*tracer) error { return nil }
