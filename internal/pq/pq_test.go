package pq

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestHeapOrdering(t *testing.T) {
	h := NewHeap[string](4)
	h.Push("c", 30)
	h.Push("a", 10)
	h.Push("b", 20)
	if h.Len() != 3 {
		t.Fatalf("Len = %d", h.Len())
	}
	if k, ok := h.PeekKey(); !ok || k != 10 {
		t.Fatalf("PeekKey = (%d,%v)", k, ok)
	}
	for _, want := range []string{"a", "b", "c"} {
		got, ok := h.Pop()
		if !ok || got != want {
			t.Fatalf("Pop = (%q,%v), want %q", got, ok, want)
		}
	}
	if _, ok := h.Pop(); ok {
		t.Fatal("Pop on empty heap returned ok")
	}
	if _, ok := h.PeekKey(); ok {
		t.Fatal("PeekKey on empty heap returned ok")
	}
}

func TestHeapStableAmongEqualKeys(t *testing.T) {
	h := NewHeap[int](0)
	for i := 0; i < 100; i++ {
		h.Push(i, 7)
	}
	for i := 0; i < 100; i++ {
		got, _ := h.Pop()
		if got != i {
			t.Fatalf("equal-key pop %d = %d, want insertion order", i, got)
		}
	}
}

func TestHeapRandomAgainstSort(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	h := NewHeap[uint64](0)
	keys := make([]uint64, 1000)
	for i := range keys {
		keys[i] = uint64(rng.Intn(500))
		h.Push(keys[i], keys[i])
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	for i, want := range keys {
		got, ok := h.Pop()
		if !ok || got != want {
			t.Fatalf("pop %d = (%d,%v), want %d", i, got, ok, want)
		}
	}
}

func TestHeapInterleavedPushPop(t *testing.T) {
	h := NewHeap[uint64](0)
	rng := rand.New(rand.NewSource(2))
	var lastPopped uint64
	inHeap := 0
	for step := 0; step < 5000; step++ {
		if inHeap == 0 || rng.Intn(2) == 0 {
			// Monotone-ish workload (like SSSP): push keys >= last popped.
			k := lastPopped + uint64(rng.Intn(100))
			h.Push(k, k)
			inHeap++
		} else {
			k, ok := h.Pop()
			if !ok {
				t.Fatal("unexpected empty")
			}
			if k < lastPopped {
				t.Fatalf("non-monotone pop: %d after %d", k, lastPopped)
			}
			lastPopped = k
			inHeap--
		}
	}
}

func TestFIFOOrdering(t *testing.T) {
	q := NewFIFO[int](2)
	for i := 0; i < 10; i++ {
		q.Push(i, uint64(100-i)) // keys must be ignored
	}
	if q.Len() != 10 {
		t.Fatalf("Len = %d", q.Len())
	}
	for i := 0; i < 10; i++ {
		got, ok := q.Pop()
		if !ok || got != i {
			t.Fatalf("Pop = (%d,%v), want %d", got, ok, i)
		}
	}
	if _, ok := q.Pop(); ok {
		t.Fatal("Pop on empty FIFO returned ok")
	}
}

func TestFIFOWraparound(t *testing.T) {
	q := NewFIFO[int](4)
	for round := 0; round < 50; round++ {
		for i := 0; i < 3; i++ {
			q.Push(round*3+i, 0)
		}
		for i := 0; i < 3; i++ {
			got, ok := q.Pop()
			if !ok || got != round*3+i {
				t.Fatalf("round %d: Pop = (%d,%v)", round, got, ok)
			}
		}
	}
	if q.Len() != 0 {
		t.Fatalf("Len = %d after drain", q.Len())
	}
}

func TestFIFOGrowPreservesOrder(t *testing.T) {
	q := NewFIFO[int](4)
	// Offset head, then force growth.
	q.Push(-1, 0)
	q.Push(-2, 0)
	q.Pop()
	q.Pop()
	for i := 0; i < 100; i++ {
		q.Push(i, 0)
	}
	for i := 0; i < 100; i++ {
		got, _ := q.Pop()
		if got != i {
			t.Fatalf("after grow: pop = %d, want %d", got, i)
		}
	}
}

func TestBucketOrdering(t *testing.T) {
	b := NewBucket[uint64](10)
	for _, k := range []uint64{95, 5, 42, 17, 3, 88} {
		b.Push(k, k)
	}
	var got []uint64
	for {
		v, ok := b.Pop()
		if !ok {
			break
		}
		got = append(got, v)
	}
	if len(got) != 6 {
		t.Fatalf("drained %d items", len(got))
	}
	// Bucket queue guarantees bucket-level ordering: item keys can be out
	// of order within a Δ=10 bucket but bucket indices must not decrease.
	for i := 1; i < len(got); i++ {
		if got[i]/10 < got[i-1]/10 {
			t.Fatalf("bucket order violated: %v", got)
		}
	}
}

func TestBucketLateArrivalsClampToCurrentBucket(t *testing.T) {
	b := NewBucket[uint64](10)
	b.Push(55, 55)
	if v, _ := b.Pop(); v != 55 {
		t.Fatal("wrong pop")
	}
	// Key 5 arrives after cursor passed bucket 0; it must still be popped.
	b.Push(5, 5)
	v, ok := b.Pop()
	if !ok || v != 5 {
		t.Fatalf("late arrival lost: (%d,%v)", v, ok)
	}
}

func TestBucketZeroDelta(t *testing.T) {
	b := NewBucket[int](0) // defaults to 1 => exact priority order
	for _, k := range []uint64{9, 1, 5} {
		b.Push(int(k), k)
	}
	want := []int{1, 5, 9}
	for _, w := range want {
		got, _ := b.Pop()
		if got != w {
			t.Fatalf("pop = %d, want %d", got, w)
		}
	}
	if _, ok := b.Pop(); ok {
		t.Fatal("empty bucket popped")
	}
}

func TestPropertyHeapSortsAnyInput(t *testing.T) {
	f := func(keys []uint64) bool {
		h := NewHeap[uint64](len(keys))
		for _, k := range keys {
			h.Push(k, k)
		}
		prev := uint64(0)
		for i := 0; i < len(keys); i++ {
			k, ok := h.Pop()
			if !ok || k < prev {
				return false
			}
			prev = k
		}
		_, ok := h.Pop()
		return !ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyFIFOPreservesSequence(t *testing.T) {
	f := func(items []int) bool {
		q := NewFIFO[int](1)
		for _, it := range items {
			q.Push(it, 0)
		}
		for _, want := range items {
			got, ok := q.Pop()
			if !ok || got != want {
				return false
			}
		}
		return q.Len() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyQueuesConserveItems(t *testing.T) {
	// All three disciplines must return exactly the multiset pushed.
	f := func(keys []uint64, pick uint8) bool {
		var q Queue[uint64]
		switch pick % 3 {
		case 0:
			q = NewHeap[uint64](0)
		case 1:
			q = NewFIFO[uint64](0)
		default:
			q = NewBucket[uint64](16)
		}
		want := map[uint64]int{}
		for _, k := range keys {
			q.Push(k, k)
			want[k]++
		}
		if q.Len() != len(keys) {
			return false
		}
		got := map[uint64]int{}
		for i := 0; i < len(keys); i++ {
			v, ok := q.Pop()
			if !ok {
				return false
			}
			got[v]++
		}
		if len(got) != len(want) {
			return false
		}
		for k, c := range want {
			if got[k] != c {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkHeapPushPop(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	keys := make([]uint64, 4096)
	for i := range keys {
		keys[i] = uint64(rng.Intn(1 << 20))
	}
	b.ResetTimer()
	h := NewHeap[uint64](4096)
	for i := 0; i < b.N; i++ {
		k := keys[i%len(keys)]
		h.Push(k, k)
		if h.Len() > 2048 {
			h.Pop()
		}
	}
}

func BenchmarkFIFOPushPop(b *testing.B) {
	q := NewFIFO[uint64](4096)
	for i := 0; i < b.N; i++ {
		q.Push(uint64(i), 0)
		if q.Len() > 2048 {
			q.Pop()
		}
	}
}
