package engine

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
)

// TestSwapperLifecycle: swap promotes the candidate and demotes the
// incumbent to the fallback slot; rollback exchanges them; every activation
// bumps the epoch; rolling back with no fallback is an error.
func TestSwapperLifecycle(t *testing.T) {
	a := testGen(t, 1, 0.5, "")
	b := testGen(t, 2, 0.5, "")

	sw := NewSwapper(a)
	if sw.Active() != a || sw.Fallback() != nil || sw.Epoch() != 1 {
		t.Fatalf("fresh swapper: active=%p fallback=%p epoch=%d", sw.Active(), sw.Fallback(), sw.Epoch())
	}
	if _, err := sw.Rollback(); !errors.Is(err, ErrNoFallback) {
		t.Fatalf("rollback with no fallback: %v", err)
	}

	if old := sw.Swap(b); old != a {
		t.Fatalf("swap demoted %p, want %p", old, a)
	}
	if sw.Active() != b || sw.Fallback() != a || sw.Epoch() != 2 {
		t.Fatalf("after swap: active=%p fallback=%p epoch=%d", sw.Active(), sw.Fallback(), sw.Epoch())
	}

	restored, err := sw.Rollback()
	if err != nil || restored != a {
		t.Fatalf("rollback: restored=%p err=%v, want %p", restored, err, a)
	}
	// The failed generation stays reachable in the fallback slot for
	// post-mortems (and for a deliberate roll-forward).
	if sw.Active() != a || sw.Fallback() != b || sw.Epoch() != 3 {
		t.Fatalf("after rollback: active=%p fallback=%p epoch=%d", sw.Active(), sw.Fallback(), sw.Epoch())
	}
}

// TestSwapperConcurrentActive races scorers resolving the active generation
// against a storm of swaps and rollbacks (run under -race): every resolution
// must observe a fully-built generation from the known set, and scoring
// through it must not tear.
func TestSwapperConcurrentActive(t *testing.T) {
	gens := []*Generation{
		testGen(t, 1, 0.5, ""),
		testGen(t, 2, 0.5, ""),
		testGen(t, 3, 0.5, ""),
	}
	known := map[*Generation]bool{gens[0]: true, gens[1]: true, gens[2]: true}
	sw := NewSwapper(gens[0])
	corpus := testCorpus(4, gens[0].RawDim())

	var stop atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				g := sw.Active()
				if !known[g] {
					t.Errorf("resolved unknown generation %p", g)
					return
				}
				sc := g.NewScorer()
				s := &corpus[0]
				sc.Score(s.Raw, s.Instructions, s.Cycles)
			}
		}()
	}
	for i := 0; i < 300; i++ {
		sw.Swap(gens[i%len(gens)])
		if i%7 == 0 {
			if _, err := sw.Rollback(); err != nil {
				t.Errorf("rollback: %v", err)
			}
		}
	}
	stop.Store(true)
	wg.Wait()
	if sw.Epoch() < 300 {
		t.Fatalf("epoch %d after 300+ activations", sw.Epoch())
	}
}
