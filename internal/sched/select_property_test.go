package sched

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"macroop/internal/config"
	"macroop/internal/isa"
)

// Property test for the bit kernel's select phase: for random ready
// masks, issue widths, port (FU) counts, and age orders — including ring
// wrap-around and mid-ring oldest positions — the priority-decoder bit
// scan must grant exactly the entries a straightforward reference select
// grants, in the same (oldest-first) order.
//
// The test owns the ready mask: it overwrites it with an arbitrary
// subset of the waiting entries before every tick (draining each insert
// round's deferred readiness events first, so nothing mutates the mask
// mid-tick), which decouples the property from wakeup timing and lets it
// probe mask shapes ordinary dependence graphs would rarely produce.

// refSelect is the reference: requesters in ascending age order, width
// and per-class port gates applied in scan order, ClassNone exempt from
// port accounting.
func refSelect(req []*Entry, width int, fu [isa.NumClasses]int) []*Entry {
	sorted := append([]*Entry(nil), req...)
	sort.Slice(sorted, func(a, b int) bool { return sorted[a].age < sorted[b].age })
	var used [isa.NumClasses]int
	var out []*Entry
	for _, e := range sorted {
		if len(out) == width {
			break
		}
		c := e.ops[0].FU
		if c != isa.ClassNone {
			if used[c] >= fu[c] {
				continue
			}
			used[c]++
		}
		out = append(out, e)
	}
	return out
}

func TestSelectProperty(t *testing.T) {
	classes := []isa.Class{isa.ClassIntALU, isa.ClassIntMul, isa.ClassFP, isa.ClassMem, isa.ClassNone}
	seeds := []int64{1, 2, 3, 4, 5, 6, 7, 8}
	rounds := 60
	if testing.Short() {
		seeds = seeds[:3]
		rounds = 25
	}
	for _, seed := range seeds {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			cfg := Config{
				Model:         config.SchedBase,
				Width:         1 + rng.Intn(6),
				IQEntries:     0,
				ReplayPenalty: 2,
				// A small ring forces several wrap-arounds over the run;
				// insert keeps the live age span within it.
				Window: 64,
			}
			for c := range cfg.FU {
				cfg.FU[c] = rng.Intn(4) // 0 ports = that class never issues
			}
			k := NewBit(cfg)

			var live []*Entry
			insert := func(now int64, n int) {
				// Like a full ROB, stop while the oldest live entry is
				// Window ages back (entries of a class without ports
				// never leave).
				for i := 0; i < n && k.nextAge-k.oldestAge < int64(cfg.Window); i++ {
					cl := classes[rng.Intn(len(classes))]
					e := k.Insert(OpInfo{FU: cl, Latency: 1, Seq: int64(len(live))}, nil, false)
					live = append(live, e)
				}
				// The insert round's readiness re-checks are due next
				// cycle; drain them now so the test's mask assignment is
				// the only thing that sets ready bits during the tick.
				k.readyEvents.take(now + 1)
			}

			insert(0, 8+rng.Intn(8))
			for now := int64(1); now <= int64(rounds); now++ {
				// Random requester subset of the waiting entries.
				var waiting, req []*Entry
				for _, e := range live {
					if e.GetState() == StateWaiting && k.ent[e.slot] == e {
						waiting = append(waiting, e)
					}
				}
				for i := range k.ready {
					k.ready[i] = 0
				}
				for _, e := range waiting {
					if rng.Intn(100) < 60 {
						bitSet(k.ready, e.slot)
						req = append(req, e)
					}
				}

				want := refSelect(req, cfg.Width, cfg.FU)
				got := k.Tick(now)

				if len(got) != len(want) {
					t.Fatalf("cycle %d (width %d, fu %v): got %d grants, want %d",
						now, cfg.Width, cfg.FU, len(got), len(want))
				}
				for i := range got {
					if got[i].Entry != want[i] {
						t.Fatalf("cycle %d grant %d: got entry age %d (class %v), want age %d (class %v)",
							now, i, got[i].Entry.age, got[i].Entry.ops[0].FU, want[i].age, want[i].ops[0].FU)
					}
					if got[i].OpIdx != 0 || got[i].Cycle != now {
						t.Fatalf("cycle %d grant %d: op %d cycle %d", now, i, got[i].OpIdx, got[i].Cycle)
					}
				}

				// Recycle finalized entries and top the queue back up so
				// ages keep advancing around the ring.
				n := 0
				for _, e := range live {
					if e.Final() {
						k.Release(e)
						continue
					}
					live[n] = e
					n++
				}
				live = live[:n]
				insert(now, 1+rng.Intn(4))
				if err := k.Err(); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}

// TestAgeScanOrder checks the scan primitive itself: for random masks
// and start positions, ageScan yields exactly the set bits, each once,
// in circular order starting from the start position.
func TestAgeScanOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 2000; trial++ {
		words := 1 + rng.Intn(4)
		n := words * 64
		mask := make([]uint64, words)
		for i := range mask {
			switch rng.Intn(3) {
			case 0:
				mask[i] = rng.Uint64()
			case 1:
				mask[i] = rng.Uint64() & rng.Uint64() & rng.Uint64()
			case 2: // leave zero: whole-word skip paths
			}
		}
		start := rng.Intn(n)

		var want []int
		for off := 0; off < n; off++ {
			p := (start + off) % n
			if mask[p>>6]&(1<<uint(p&63)) != 0 {
				want = append(want, p)
			}
		}

		var got []int
		sc := newAgeScan(mask, start)
		for {
			p, ok := sc.next()
			if !ok {
				break
			}
			got = append(got, p)
		}
		if len(got) != len(want) {
			t.Fatalf("trial %d (words %d start %d): got %d positions, want %d", trial, words, start, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("trial %d (words %d start %d): position %d: got %d want %d", trial, words, start, i, got[i], want[i])
			}
		}
	}
}
