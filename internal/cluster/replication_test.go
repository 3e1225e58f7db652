package cluster

import (
	"context"
	"fmt"
	"net"
	"net/http/httptest"
	"path/filepath"
	"testing"
	"time"

	"macroop/internal/journal"
	"macroop/internal/service"
)

// replicaSetFor computes a cell's replica set and the one node outside
// it (for three-node R=2 fleets).
func replicaSetFor(t *testing.T, r *Ring, fp string, ids []string) (set []string, outsider string) {
	t.Helper()
	set = r.Replicas(fp, 2, nil)
	if len(set) != 2 {
		t.Fatalf("replica set %v, want 2 members", set)
	}
	for _, id := range ids {
		if id != set[0] && id != set[1] {
			outsider = id
		}
	}
	return set, outsider
}

// pollUntil spins on cond with a deadline — the integration tests'
// convergence wait.
func pollUntil(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestClusterReplicationWritesThrough: with R=2, the primary's fresh
// execution lands in its replica's cache and journal without the
// replica executing anything — and the primary probed the replica
// (cache-only) before running the cell itself.
func TestClusterReplicationWritesThrough(t *testing.T) {
	ids := []string{"n1", "n2"}
	nodes := startCluster(t, ids, func(id string, cfg *Config, opts *service.Options) {
		cfg.Replication = 2
	})
	ctx := context.Background()

	cell := cellOwnedBy(t, nodes["n1"].node.Ring(), "n1", testClusterInsts)
	fp, err := cell.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	res, err := nodes["n1"].svc.Simulate(ctx, service.SimRequest{Benchmark: cell.Bench, MaxInsts: cell.Insts})
	if err != nil {
		t.Fatalf("simulate: %v", err)
	}
	if res.PeerFilled || res.Cached {
		t.Fatalf("primary's own fresh cell reported cached/peer-filled: %+v", res)
	}
	if nodes["n1"].node.met.fillMiss.Load() == 0 {
		t.Error("primary did not probe its replica before executing")
	}

	// Write-through replication is asynchronous: poll the replica.
	var rec *service.CachedResult
	pollUntil(t, 10*time.Second, "record to replicate to n2", func() bool {
		r, ok := nodes["n2"].svc.CachedByFingerprint(fp)
		rec = r
		return ok
	})
	if got := fmt.Sprintf("%016x", rec.Checksum); got != res.Checksum {
		t.Errorf("replicated checksum %s != primary %s", got, res.Checksum)
	}
	if got := nodes["n2"].svc.Executions(); got != 0 {
		t.Errorf("replica executed %d cells; replication must not execute", got)
	}
	if nodes["n2"].node.met.replRecv.Load() == 0 {
		t.Error("replica did not count the received record")
	}
	// The replica journaled the record: a crash of both nodes still
	// leaves the result durable in two places.
	recs, err := journal.Load(filepath.Join(nodes["n2"].node.cfg.JournalDir, "n2.journal"))
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, r := range recs {
		if r.Key == service.KeyCell+fp {
			found = true
		}
	}
	if !found {
		t.Error("replicated record not journaled on the replica")
	}
}

// TestClusterReplicaReadSurvivesPrimaryKill is the R=2 acceptance drill:
// records executed on a primary and write-through-replicated survive a
// SIGKILL of that primary with zero failed client requests, zero
// re-executions of completed cells, and checksums byte-identical to a
// single-node reference — both immediately after the kill (failure not
// yet detected: the requester walks the stale replica set past the dead
// primary) and after the death promotes a new primary.
func TestClusterReplicaReadSurvivesPrimaryKill(t *testing.T) {
	ids := []string{"n1", "n2", "n3"}
	nodes := startCluster(t, ids, func(id string, cfg *Config, opts *service.Options) {
		cfg.Replication = 2
		cfg.FillBackoff = 10 * time.Millisecond // keep the dead-primary retries quick
	})
	ctx := context.Background()
	ring := nodes["n1"].node.Ring()

	// Two cells, both primaried on the victim n1.
	cellA := cellOwnedBy(t, ring, "n1", testClusterInsts)
	cellB := cellOwnedBy(t, ring, "n1", testClusterInsts+1000)
	fpA, err := cellA.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	fpB, err := cellB.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}

	// Single-node reference checksums.
	ref, err := service.New(service.Options{Workers: 2, DefaultInsts: testClusterInsts})
	if err != nil {
		t.Fatal(err)
	}
	ref.Start()
	want := map[string]string{}
	for fp, cell := range map[string]service.CellSpec{fpA: cellA, fpB: cellB} {
		r, err := ref.Simulate(ctx, service.SimRequest{Benchmark: cell.Bench, MaxInsts: cell.Insts})
		if err != nil {
			t.Fatalf("reference simulate: %v", err)
		}
		want[fp] = r.Checksum
	}
	ref.Close()

	// Execute both cells on the primary and wait for the write-through
	// copies to land on the replicas.
	for fp, cell := range map[string]service.CellSpec{fpA: cellA, fpB: cellB} {
		if _, err := nodes["n1"].svc.Simulate(ctx, service.SimRequest{Benchmark: cell.Bench, MaxInsts: cell.Insts}); err != nil {
			t.Fatalf("primary simulate: %v", err)
		}
		set, _ := replicaSetFor(t, ring, fp, ids)
		replica := set[1]
		pollUntil(t, 10*time.Second, "replication of "+fp, func() bool {
			_, ok := nodes[replica].svc.CachedByFingerprint(fp)
			return ok
		})
	}

	// SIGKILL the primary.
	nodes["n1"].node.Kill()
	nodes["n1"].srv.Close()

	// Request cellA from outside its replica set IMMEDIATELY — before the
	// failure detector can have noticed. The requester must walk past the
	// unreachable primary to the surviving replica.
	setA, outsiderA := replicaSetFor(t, ring, fpA, ids)
	resA, err := nodes[outsiderA].svc.Simulate(ctx, service.SimRequest{Benchmark: cellA.Bench, MaxInsts: cellA.Insts})
	if err != nil {
		t.Fatalf("post-kill request for cellA failed: %v", err)
	}
	if !resA.PeerFilled {
		t.Errorf("cellA not served from the replica set: %+v", resA)
	}
	if resA.Checksum != want[fpA] {
		t.Errorf("cellA checksum %s != reference %s", resA.Checksum, want[fpA])
	}

	// Wait for the death to be detected and for the survivors to agree on
	// the epoch, then request cellB — the replica set has been recomputed
	// over the survivors. Each survivor bumps its epoch when it declares
	// the death and heartbeats merge the two, so right after detection
	// they can differ for a heartbeat, and a fill sent across that skew
	// degrades to local execution by design (requestFill).
	setB, outsiderB := replicaSetFor(t, ring, fpB, ids)
	pollUntil(t, 10*time.Second, "death detection on all survivors", func() bool {
		a, b := nodes[outsiderB].node.mem, nodes[setB[1]].node.mem
		return !a.Alive("n1") && !b.Alive("n1") && a.Epoch() == b.Epoch()
	})
	resB, err := nodes[outsiderB].svc.Simulate(ctx, service.SimRequest{Benchmark: cellB.Bench, MaxInsts: cellB.Insts})
	if err != nil {
		t.Fatalf("post-detection request for cellB failed: %v", err)
	}
	if resB.Checksum != want[fpB] {
		t.Errorf("cellB checksum %s != reference %s", resB.Checksum, want[fpB])
	}

	// No completed cell re-ran anywhere: both executions happened on the
	// dead primary before the kill.
	for _, id := range []string{setA[1], setB[1], outsiderA, outsiderB} {
		if got := nodes[id].svc.Executions(); got != 0 {
			t.Errorf("%s executed %d cells after the kill; replicated records must serve", id, got)
		}
	}
}

// TestClusterLiveJoin: a node started with JoinAddr against a live
// 2-node fleet converges into every member's view, re-owns part of the
// keyspace, and serves fills for it — with no restart of the existing
// members.
func TestClusterLiveJoin(t *testing.T) {
	ids := []string{"n1", "n2"}
	nodes := startCluster(t, ids, func(id string, cfg *Config, opts *service.Options) {
		cfg.Replication = 2
	})
	ctx := context.Background()
	dir := nodes["n1"].node.cfg.JournalDir

	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Self:     "n3",
		Members:  map[string]string{"n3": "http://" + l.Addr().String()},
		JoinAddr: nodes["n1"].srv.URL,
		Timings: Timings{
			HeartbeatInterval: 25 * time.Millisecond,
			SuspectAfter:      100 * time.Millisecond,
			DeadAfter:         300 * time.Millisecond,
		},
		FillTimeout:    20 * time.Second,
		JournalDir:     dir,
		StealThreshold: -1,
		Replication:    2,
	}
	n3, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	svc3, err := service.New(n3.ServiceOptions(service.Options{
		Workers:      2,
		DefaultInsts: testClusterInsts,
		JournalPath:  filepath.Join(dir, "n3.journal"),
	}))
	if err != nil {
		t.Fatal(err)
	}
	n3.Attach(svc3)
	svc3.Start()
	srv3 := httptest.NewUnstartedServer(n3.Handler())
	srv3.Listener.Close()
	srv3.Listener = l
	srv3.Start()
	n3.Start()
	t.Cleanup(func() {
		n3.Close()
		srv3.Close()
		svc3.Close()
	})

	// Every view converges to three members with equal epochs.
	pollUntil(t, 15*time.Second, "membership convergence", func() bool {
		if len(nodes["n1"].node.mem.MemberIDs()) != 3 ||
			len(nodes["n2"].node.mem.MemberIDs()) != 3 ||
			len(n3.mem.MemberIDs()) != 3 {
			return false
		}
		e1, e2, e3 := nodes["n1"].node.mem.Epoch(), nodes["n2"].node.mem.Epoch(), n3.mem.Epoch()
		return e1 == e2 && e2 == e3
	})

	// The joined node owns part of the keyspace in everyone's ring and
	// serves fills for it.
	cell := cellOwnedBy(t, nodes["n1"].node.Ring(), "n3", testClusterInsts)
	if o, _ := nodes["n2"].node.Ring().Owner(mustFP(t, cell), nodes["n2"].node.mem.Alive); o != "n3" {
		t.Fatalf("n2's ring assigns the cell to %s, want the joined n3", o)
	}
	res, err := nodes["n1"].svc.Simulate(ctx, service.SimRequest{Benchmark: cell.Bench, MaxInsts: cell.Insts})
	if err != nil {
		t.Fatalf("simulate through joined node: %v", err)
	}
	if !res.PeerFilled {
		t.Errorf("cell owned by the joined node was not peer-filled: %+v", res)
	}
	if got := svc3.Executions(); got != 1 {
		t.Errorf("joined node executed %d cells, want 1", got)
	}
}

func mustFP(t *testing.T, c service.CellSpec) string {
	t.Helper()
	fp, err := c.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	return fp
}

// TestClusterAntiEntropyRepairsHole: when a replica dies, the next
// survivor is promoted into the set cold; the anti-entropy digest
// exchange detects the hole and the surviving holder pushes the record,
// journaled, onto the promoted replica — without any execution.
func TestClusterAntiEntropyRepairsHole(t *testing.T) {
	ids := []string{"n1", "n2", "n3"}
	nodes := startCluster(t, ids, func(id string, cfg *Config, opts *service.Options) {
		cfg.Replication = 2
		cfg.RepairInterval = 100 * time.Millisecond
		// Disable journal-backed failover so the promoted replica can only
		// get the record through anti-entropy, not adoption warming.
		cfg.JournalDir = ""
	})
	ctx := context.Background()
	ring := nodes["n1"].node.Ring()

	cell := cellOwnedBy(t, ring, "n1", testClusterInsts)
	fp := mustFP(t, cell)
	set, outsider := replicaSetFor(t, ring, fp, ids)
	replica := set[1]

	if _, err := nodes["n1"].svc.Simulate(ctx, service.SimRequest{Benchmark: cell.Bench, MaxInsts: cell.Insts}); err != nil {
		t.Fatalf("simulate: %v", err)
	}
	pollUntil(t, 10*time.Second, "write-through replication", func() bool {
		_, ok := nodes[replica].svc.CachedByFingerprint(fp)
		return ok
	})

	// Kill the replica: the outsider is promoted into the set, cold.
	nodes[replica].node.Kill()
	nodes[replica].srv.Close()

	// handleReplicate caches the record just before it counts the repair,
	// so wait for both: a hole filled by any other path never counts.
	var rec *service.CachedResult
	pollUntil(t, 20*time.Second, "anti-entropy repair onto "+outsider+", cached and counted", func() bool {
		r, ok := nodes[outsider].svc.CachedByFingerprint(fp)
		rec = r
		return ok && nodes[outsider].node.met.repairs.Load() > 0
	})
	if got := nodes[outsider].svc.Executions(); got != 0 {
		t.Errorf("promoted replica executed %d cells; repair must not execute", got)
	}
	primaryRec, ok := nodes["n1"].svc.CachedByFingerprint(fp)
	if !ok || rec.Checksum != primaryRec.Checksum {
		t.Errorf("repaired record diverges from the primary's")
	}
}
