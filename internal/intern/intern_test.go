package intern

import (
	"math/rand"
	"sort"
	"sync"
	"testing"
)

func TestTableInternLookupRoundTrip(t *testing.T) {
	tab := NewTable(4)
	a := tab.Intern("alpha")
	b := tab.Intern("beta")
	if a == b {
		t.Fatalf("distinct symbols share ID %d", a)
	}
	if got := tab.Intern("alpha"); got != a {
		t.Fatalf("re-intern alpha = %d, want %d", got, a)
	}
	if got, ok := tab.Lookup("beta"); !ok || got != b {
		t.Fatalf("Lookup(beta) = %d,%v want %d,true", got, ok, b)
	}
	if _, ok := tab.Lookup("gamma"); ok {
		t.Fatal("Lookup(gamma) found an uninterned symbol")
	}
	if a != 0 || b != 1 {
		t.Fatalf("alpha = %d, beta = %d, want IDs 0 and 1 in order of first sight", a, b)
	}
}

func TestTableIDsAreDense(t *testing.T) {
	tab := NewTable(0)
	for i := 0; i < 100; i++ {
		if id := tab.Intern(string(rune('a'+i%26)) + string(rune('0'+i/26))); int(id) >= 100 {
			t.Fatalf("ID %d not dense", id)
		}
	}
}

func TestSyncTableConcurrentIntern(t *testing.T) {
	var tab SyncTable
	syms := make([]string, 64)
	for i := range syms {
		syms[i] = "sym" + string(rune('A'+i%26)) + string(rune('a'+i/26))
	}
	var wg sync.WaitGroup
	ids := make([][]uint32, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			ids[g] = make([]uint32, len(syms))
			for i, s := range syms {
				ids[g][i] = tab.Intern(s)
			}
		}(g)
	}
	wg.Wait()
	for g := 1; g < 8; g++ {
		for i := range syms {
			if ids[g][i] != ids[0][i] {
				t.Fatalf("goroutine %d interned %q as %d, goroutine 0 as %d", g, syms[i], ids[g][i], ids[0][i])
			}
		}
	}
	if len(tab.strs) != len(syms) {
		t.Fatalf("%d symbols interned, want %d", len(tab.strs), len(syms))
	}
	for i, s := range syms {
		if tab.String(ids[0][i]) != s {
			t.Fatalf("String(%d) = %q, want %q", ids[0][i], tab.String(ids[0][i]), s)
		}
	}
}

func TestBitsAgainstMapOracle(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	b := &Bits{}
	oracle := map[uint32]bool{}
	for i := 0; i < 5000; i++ {
		id := uint32(r.Intn(2000))
		switch r.Intn(3) {
		case 0:
			fresh := b.Add(id)
			if fresh == oracle[id] {
				t.Fatalf("Add(%d) fresh=%v, oracle has=%v", id, fresh, oracle[id])
			}
			oracle[id] = true
		case 1:
			if b.Has(id) != oracle[id] {
				t.Fatalf("Has(%d) = %v, oracle %v", id, b.Has(id), oracle[id])
			}
		case 2:
			if b.Count() != len(oracle) {
				t.Fatalf("Count = %d, oracle %d", b.Count(), len(oracle))
			}
		}
	}
	// Each must visit exactly the oracle's members, in increasing order.
	want := make([]uint32, 0, len(oracle))
	for id := range oracle {
		want = append(want, id)
	}
	sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
	var got []uint32
	b.Each(func(id uint32) bool { got = append(got, id); return true })
	if len(got) != len(want) {
		t.Fatalf("Each visited %d, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("Each visit %d = %d, want %d", i, got[i], want[i])
		}
	}
}

func TestBitsUnionCloneEqual(t *testing.T) {
	a, b := &Bits{}, &Bits{}
	for _, id := range []uint32{1, 64, 1000} {
		a.Add(id)
	}
	for _, id := range []uint32{2, 64} {
		b.Add(id)
	}
	c := a.Clone()
	c.Union(b)
	for _, id := range []uint32{1, 2, 64, 1000} {
		if !c.Has(id) {
			t.Fatalf("union missing %d", id)
		}
	}
	if c.Count() != 4 {
		t.Fatalf("union count = %d, want 4", c.Count())
	}
	if !a.Has(1000) || a.Has(2) {
		t.Fatal("Clone aliases its source")
	}
	// Equal ignores backing capacity.
	small, big := &Bits{}, NewBits(4096)
	small.Add(3)
	big.Add(3)
	if !small.Equal(big) || !big.Equal(small) {
		t.Fatal("Equal sensitive to capacity")
	}
	big.Add(900)
	if small.Equal(big) {
		t.Fatal("Equal missed a high member")
	}
}

func TestBitsNilSafety(t *testing.T) {
	var b *Bits
	if b.Has(0) || b.Count() != 0 || !b.Empty() {
		t.Fatal("nil Bits should behave as the empty set")
	}
	b.Each(func(uint32) bool { t.Fatal("nil Bits iterated"); return false })
	if c := b.Clone(); c == nil || !c.Empty() {
		t.Fatal("nil Clone should return an empty set")
	}
	var o *Bits
	if !b.Equal(o) {
		t.Fatal("nil sets should be equal")
	}
	live := &Bits{}
	live.Union(nil) // must not panic
	if !live.Empty() {
		t.Fatal("Union(nil) changed the set")
	}
}

func TestBitsEachEarlyStop(t *testing.T) {
	b := &Bits{}
	for i := uint32(0); i < 200; i += 3 {
		b.Add(i)
	}
	seen := 0
	b.Each(func(uint32) bool { seen++; return seen < 5 })
	if seen != 5 {
		t.Fatalf("early stop visited %d, want 5", seen)
	}
}

func TestSortedStrings(t *testing.T) {
	var tab SyncTable
	ids := []uint32{tab.Intern("zeta"), tab.Intern("alpha"), tab.Intern("mid")}
	b := &Bits{}
	for _, id := range ids {
		b.Add(id)
	}
	b.Add(999) // unknown to the table: dropped
	got := SortedStrings(b, &tab)
	want := []string{"alpha", "mid", "zeta"}
	if len(got) != len(want) {
		t.Fatalf("SortedStrings = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("SortedStrings = %v, want %v", got, want)
		}
	}
	if SortedStrings(nil, &tab) != nil {
		t.Fatal("nil set should resolve to nil")
	}
}
