package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"time"

	"tycoon/internal/client"
	"tycoon/internal/cluster"
	"tycoon/internal/pipeline"
	"tycoon/internal/relalg"
	"tycoon/internal/server"
	"tycoon/internal/ship"
	"tycoon/internal/store"
)

// node is one tycd served in this process over a loopback listener, on
// a file-backed store.
type node struct {
	path  string
	st    *store.Store
	srv   *server.Server
	addr  string
	serve chan error
}

// startNode opens the store at path, builds the server, lets load fill
// the store in-process, commits, and starts serving.
func startNode(path string, load func(*server.Server) error) (*node, error) {
	st, err := store.Open(path)
	if err != nil {
		return nil, err
	}
	srv, err := server.New(st, server.Config{})
	if err != nil {
		st.Close()
		return nil, err
	}
	if load != nil {
		if err := load(srv); err != nil {
			st.Close()
			return nil, err
		}
	}
	if err := st.Commit(); err != nil {
		st.Close()
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		st.Close()
		return nil, err
	}
	n := &node{path: path, st: st, srv: srv, addr: ln.Addr().String(), serve: make(chan error, 1)}
	go func() { n.serve <- srv.Serve(ln) }()
	return n, nil
}

// stop drains the server, waits for its accept loop, and closes the store.
func (n *node) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := n.srv.Shutdown(ctx)
	err = errors.Join(err, <-n.serve, n.st.Close())
	return err
}

// deployment is the system under test: one tycd, or a tycc coordinator
// over several single-replica tycd shards, plus the one client session
// the workload drives it from.
type deployment struct {
	nodes []*node
	co    *cluster.Coordinator
	front *cluster.Server
	serve chan error
	c     *client.Client
}

func dialSession(addr string) (*client.Client, error) {
	// No retries: a request that fails counts as failed, never as slow.
	return client.Dial(addr, client.Options{Timeout: time.Minute, Client: "perfbench", Seed: 1})
}

// bootSingle serves one node and connects the session to it.
func (d *deployment) bootSingle(dir string, load func(*server.Server) error) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	n, err := startNode(filepath.Join(dir, "db.tyst"), load)
	if err != nil {
		return err
	}
	d.nodes = []*node{n}
	d.c, err = dialSession(n.addr)
	return err
}

// bootCluster serves one node per shard and a coordinator front end
// over them, and connects the session to the coordinator.
func (d *deployment) bootCluster(dir string, loads []func(*server.Server) error, seed int64) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	topo := cluster.Topology{Shards: make([]cluster.Shard, len(loads))}
	for i, load := range loads {
		n, err := startNode(filepath.Join(dir, fmt.Sprintf("shard%d.tyst", i)), load)
		if err != nil {
			return err
		}
		d.nodes = append(d.nodes, n)
		topo.Shards[i].Replicas = []string{n.addr}
	}
	co, err := cluster.New(cluster.Config{
		Topology:      topo,
		Timeout:       time.Minute,
		ProbeInterval: -1,
		Seed:          seed,
	})
	if err != nil {
		return err
	}
	d.co = co
	d.front = cluster.NewServer(co, cluster.ServerConfig{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	d.serve = make(chan error, 1)
	go func() { d.serve <- d.front.Serve(ln) }()
	d.c, err = dialSession(ln.Addr().String())
	return err
}

// stop closes the session and drains every server front to back.
func (d *deployment) stop() error {
	var err error
	if d.c != nil {
		err = d.c.Close()
	}
	if d.front != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		err = errors.Join(err, d.front.Shutdown(ctx), <-d.serve)
		cancel()
		d.front = nil
	} else if d.co != nil {
		d.co.Close()
	}
	for _, n := range d.nodes {
		err = errors.Join(err, n.stop())
	}
	d.nodes = nil
	return err
}

func (d *deployment) paths() []string {
	var ps []string
	for _, n := range d.nodes {
		ps = append(ps, n.path)
	}
	return ps
}

// counters is a snapshot of the servers' STATS counters: the front
// end's per-verb times, and the pipeline, index and store counters
// summed over every node.
type counters struct {
	verbs       map[string]ship.VerbStat
	pipe        pipeline.CacheStats
	idx         relalg.IndexStats
	batches     uint64
	batchTxns   uint64
	conflicts   uint64
	shardMicros int64 // SUBMIT time summed over shards (coordinated runs)
	shardCount  int64
	scatter     int64
}

func (d *deployment) counters() counters {
	var c counters
	for _, n := range d.nodes {
		s := n.srv.Stats()
		if d.front == nil {
			c.verbs = s.Verbs
		} else {
			sub := s.Verbs[ship.VSubmit.String()]
			c.shardMicros += sub.Micros
			c.shardCount += sub.Count
		}
		c.pipe.Hits += s.Pipeline.Hits
		c.pipe.Misses += s.Pipeline.Misses
		c.pipe.Evictions += s.Pipeline.Evictions
		c.idx.Hits += s.Indexes.Hits + s.Indexes.HorizonHits
		c.idx.Builds += s.Indexes.Builds + s.Indexes.Invalidations
		c.batches += s.Store.Batches
		c.batchTxns += s.Store.BatchTxns
		c.conflicts += s.Store.Conflicts
	}
	if d.front != nil {
		fs := d.front.Stats()
		c.verbs = fs.Verbs
		c.scatter = fs.Cluster.Scatter
	}
	return c
}
