package candidate

import "testing"

func TestArenaNewCopiesAndChains(t *testing.T) {
	var a Arena
	sink := a.New(Candidate{Node: 7, Gate: GateRegister, C: 1.5, D: 2.5})
	ext := a.New(Candidate{Node: 8, Gate: GateNone, Parent: sink})
	if sink.Node != 7 || sink.Gate != GateRegister || sink.C != 1.5 || sink.D != 2.5 {
		t.Fatalf("sink fields not copied: %+v", sink)
	}
	if ext.Parent != sink {
		t.Fatal("parent chain broken")
	}
	if a.Len() != 2 {
		t.Fatalf("Len = %d, want 2", a.Len())
	}
}

func TestArenaSlotsAreDistinct(t *testing.T) {
	var a Arena
	seen := make(map[*Candidate]bool)
	for i := 0; i < 3*arenaBlock; i++ { // force several block crossings
		c := a.New(Candidate{Node: int32(i)})
		if seen[c] {
			t.Fatalf("slot %p handed out twice before Reset", c)
		}
		seen[c] = true
	}
	if a.Len() != 3*arenaBlock {
		t.Fatalf("Len = %d, want %d", a.Len(), 3*arenaBlock)
	}
	// Spot-check that earlier slots kept their values across block growth.
	for c := range seen {
		if c.Node < 0 || int(c.Node) >= 3*arenaBlock {
			t.Fatalf("slot corrupted: %+v", c)
		}
	}
}

func TestArenaResetRecyclesSlabs(t *testing.T) {
	var a Arena
	first := a.New(Candidate{Node: 1})
	for i := 0; i < arenaBlock+10; i++ {
		a.New(Candidate{Node: 2})
	}
	a.Reset()
	if a.Len() != 0 {
		t.Fatalf("Len after Reset = %d, want 0", a.Len())
	}
	recycled := a.New(Candidate{Node: 3})
	if recycled != first {
		t.Errorf("Reset did not recycle the first slab: got %p, want %p", recycled, first)
	}
	if recycled.Node != 3 {
		t.Errorf("recycled slot not overwritten: %+v", recycled)
	}
	// Steady state: a Reset/refill cycle must not allocate new slabs.
	allocs := testing.AllocsPerRun(10, func() {
		a.Reset()
		for i := 0; i < arenaBlock+10; i++ {
			a.New(Candidate{Node: int32(i)})
		}
	})
	if allocs != 0 {
		t.Errorf("steady-state Reset/New cycle allocates %.0f/op, want 0", allocs)
	}
}

func TestStoreReuseClearsAndGrows(t *testing.T) {
	s := NewStore(0) // pooled stores start empty and grow on Reuse
	s.Reuse(2, false)
	if !s.Insert(&Candidate{Node: 1, C: 1, D: 1}) {
		t.Fatal("insert into reused store failed")
	}
	if ins, _, _ := s.Stats(); ins != 1 {
		t.Fatalf("inserted = %d, want 1", ins)
	}

	// A second Reuse must clear every frontier and the counters, grow the
	// node range, and may flip the dominance mode.
	s.Reuse(4, true)
	if len(s.Frontier(1)) != 0 {
		t.Error("Reuse must invalidate old frontiers")
	}
	if ins, rej, kil := s.Stats(); ins != 0 || rej != 0 || kil != 0 {
		t.Errorf("Reuse must reset counters, got (%d, %d, %d)", ins, rej, kil)
	}
	// Node 3 only exists after growth; tri-dominance keeps a worse-delay,
	// better-slack candidate that bi-dominance would reject.
	if !s.Insert(&Candidate{Node: 3, C: 1, D: 1, Slack: 5}) {
		t.Fatal("insert at grown node failed")
	}
	if !s.Insert(&Candidate{Node: 3, C: 1, D: 2, Slack: 9}) {
		t.Error("Reuse did not switch the store to tri-dominance")
	}

	// Shrinking reuse keeps the larger node range usable.
	s.Reuse(1, false)
	if !s.Insert(&Candidate{Node: 3, C: 1, D: 1}) {
		t.Error("store lost node coverage after smaller Reuse")
	}
}

func TestForEachLiveMatchesFrontierWithoutAllocating(t *testing.T) {
	s := NewStore(2)
	a := &Candidate{Node: 1, C: 1, D: 3}
	b := &Candidate{Node: 1, C: 2, D: 2}
	c := &Candidate{Node: 1, C: 3, D: 1}
	for _, cand := range []*Candidate{a, b, c} {
		if !s.Insert(cand) {
			t.Fatalf("insert %+v failed", cand)
		}
	}
	var got []*Candidate
	s.ForEachLive(1, func(c *Candidate) { got = append(got, c) })
	want := s.Frontier(1)
	if len(got) != len(want) {
		t.Fatalf("ForEachLive saw %d candidates, Frontier %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("order diverges at %d: %p vs %p", i, got[i], want[i])
		}
		if got[i].Dead {
			t.Errorf("ForEachLive yielded a dead candidate %+v", got[i])
		}
	}
	allocs := testing.AllocsPerRun(100, func() {
		s.ForEachLive(1, func(*Candidate) {})
	})
	if allocs != 0 {
		t.Errorf("ForEachLive allocates %.0f/op, want 0", allocs)
	}

	// Epoch-reset side effect: after NextEpoch the first accessor commits
	// the lazy truncation, so nothing from the old epoch is visited.
	s.NextEpoch()
	n := 0
	s.ForEachLive(1, func(*Candidate) { n++ })
	if n != 0 {
		t.Errorf("ForEachLive visited %d candidates from a stale epoch", n)
	}
}

func TestArenaDropReclaimsLastSlotOnly(t *testing.T) {
	var a Arena
	first := a.New(Candidate{Node: 1})
	second := a.New(Candidate{Node: 2})
	a.Drop(first) // not the newest slot: no-op
	if a.Len() != 2 {
		t.Fatalf("Drop of an older slot changed Len to %d, want 2", a.Len())
	}
	a.Drop(second)
	if a.Len() != 1 {
		t.Fatalf("Len after Drop = %d, want 1", a.Len())
	}
	a.Drop(second) // already dropped: no longer the newest, no-op
	if a.Len() != 1 {
		t.Fatalf("second Drop changed Len to %d, want 1", a.Len())
	}
	if again := a.New(Candidate{Node: 3}); again != second || again.Node != 3 {
		t.Fatalf("New after Drop = %p (%+v), want the reclaimed slot %p", again, again, second)
	}
	if first.Node != 1 {
		t.Fatalf("Drop corrupted an older slot: %+v", first)
	}
	a.Drop(&Candidate{}) // foreign pointer: no-op
	if a.Len() != 2 {
		t.Fatalf("Drop of a foreign candidate changed Len to %d, want 2", a.Len())
	}
}

func TestArenaDropAcrossBlockBoundary(t *testing.T) {
	var a Arena
	for i := 0; i < arenaBlock; i++ {
		a.New(Candidate{Node: int32(i)})
	}
	// The first slot of the second block is reclaimed and reused in place.
	spill := a.New(Candidate{Node: -1})
	a.Drop(spill)
	if a.Len() != arenaBlock {
		t.Fatalf("Len after dropping the spill slot = %d, want %d", a.Len(), arenaBlock)
	}
	if again := a.New(Candidate{Node: -2}); again != spill {
		t.Fatalf("New after Drop = %p, want the reclaimed second-block slot %p", again, spill)
	}
	if a.Len() != arenaBlock+1 {
		t.Fatalf("Len = %d, want %d", a.Len(), arenaBlock+1)
	}
	// The last slot of a full first block is reclaimed before the arena
	// moves on, and reused by the next New.
	var b Arena
	var lastOfBlock *Candidate
	for i := 0; i < arenaBlock; i++ {
		lastOfBlock = b.New(Candidate{Node: int32(i)})
	}
	b.Drop(lastOfBlock)
	if b.Len() != arenaBlock-1 {
		t.Fatalf("Len after dropping the block's last slot = %d, want %d", b.Len(), arenaBlock-1)
	}
	if again := b.New(Candidate{Node: 7}); again != lastOfBlock {
		t.Fatalf("New after Drop = %p, want %p", again, lastOfBlock)
	}
	if next := b.New(Candidate{Node: 8}); next == lastOfBlock || b.Len() != arenaBlock+1 {
		t.Fatalf("arena did not move to a fresh block after refilling: Len %d", b.Len())
	}
}
