package ring

import (
	"slices"
	"testing"
)

// TestRingMatchesModel drives rings through push/pop sequences and
// checks every observable against a plain-slice FIFO that keeps the
// newest bound elements.
func TestRingMatchesModel(t *testing.T) {
	cases := []struct {
		name  string
		bound int
		// ops: a positive n pushes n values, a negative n pops -n.
		ops []int
	}{
		{"capacity 1", 1, []int{1, 1, 3, -1, -1, 2}},
		{"partial fill", 5, []int{3}},
		{"wrap and drop accounting", 4, []int{10, 1, 1}},
		{"bound between grow steps", 11, []int{30}},
		{"pop then push while wrapped across a grow", 32, []int{8, -3, 3, 1, 20, -5, 40}},
		{"drain to empty and refill", 3, []int{5, -4, 2, -2, 7}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := New[int](tc.bound)
			var model []int
			var dropped uint64
			next := 0
			check := func(step int) {
				t.Helper()
				if got := r.Append(nil, nil); !slices.Equal(got, model) {
					t.Fatalf("step %d: contents %v, want %v", step, got, model)
				}
				if r.Len() != len(model) || r.Cap() != tc.bound || r.Dropped() != dropped {
					t.Fatalf("step %d: len/cap/dropped = %d/%d/%d, want %d/%d/%d",
						step, r.Len(), r.Cap(), r.Dropped(), len(model), tc.bound, dropped)
				}
				if len(r.buf) > tc.bound {
					t.Fatalf("step %d: storage %d exceeds bound %d", step, len(r.buf), tc.bound)
				}
				front, ok := r.Front()
				if ok != (len(model) > 0) || (ok && front != model[0]) {
					t.Fatalf("step %d: Front = %d,%v, want oldest of %v", step, front, ok, model)
				}
			}
			check(-1)
			for step, op := range tc.ops {
				for ; op > 0; op-- {
					r.Push(next)
					model = append(model, next)
					if len(model) > tc.bound {
						model = model[1:]
						dropped++
					}
					next++
				}
				for ; op < 0; op++ {
					got, ok := r.PopFront()
					if len(model) == 0 {
						if ok {
							t.Fatalf("step %d: PopFront on empty ring returned %d", step, got)
						}
						continue
					}
					if !ok || got != model[0] {
						t.Fatalf("step %d: PopFront = %d,%v, want %d", step, got, ok, model[0])
					}
					model = model[1:]
				}
				check(step)
			}
		})
	}
}

func TestRingPopEmpty(t *testing.T) {
	r := New[string](2)
	if v, ok := r.PopFront(); ok || v != "" {
		t.Fatalf("PopFront on empty = %q,%v", v, ok)
	}
	if v, ok := r.Front(); ok || v != "" {
		t.Fatalf("Front on empty = %q,%v", v, ok)
	}
}

func TestRingKeepPredicateOldestFirst(t *testing.T) {
	r := New[int](6)
	for i := 1; i <= 10; i++ { // holds 5..10
		r.Push(i)
	}
	after := func(cursor int) func(*int) bool {
		return func(v *int) bool { return *v > cursor }
	}
	for _, tc := range []struct {
		keep func(*int) bool
		want []int
	}{
		{nil, []int{5, 6, 7, 8, 9, 10}},
		{after(0), []int{5, 6, 7, 8, 9, 10}},
		{after(7), []int{8, 9, 10}},
		{after(10), nil},
		{func(v *int) bool { return *v%2 == 0 }, []int{6, 8, 10}},
	} {
		if got := r.Append(nil, tc.keep); !slices.Equal(got, tc.want) {
			t.Fatalf("Append = %v, want %v", got, tc.want)
		}
	}
	// Append extends dst rather than replacing it.
	if got := r.Append([]int{-1}, after(8)); !slices.Equal(got, []int{-1, 9, 10}) {
		t.Fatalf("Append onto dst = %v", got)
	}
}

func TestRingCapIsBoundNotStorage(t *testing.T) {
	const bound = 1000
	r := New[[64]byte](bound)
	if len(r.buf) != 0 {
		t.Fatalf("New preallocated %d slots", len(r.buf))
	}
	for i := 0; i < 3*bound; i++ {
		if r.Cap() != bound {
			t.Fatalf("after %d pushes Cap = %d, want %d", i, r.Cap(), bound)
		}
		r.Push([64]byte{})
	}
	if len(r.buf) != bound {
		t.Fatalf("storage = %d, want the bound %d once full", len(r.buf), bound)
	}
}

func TestRingPushSlotFillsInPlace(t *testing.T) {
	type ev struct{ seq, val int }
	r := New[ev](2)
	for i := 1; i <= 3; i++ {
		s := r.PushSlot()
		s.seq, s.val = i, 10*i
	}
	if got := r.Append(nil, nil); !slices.Equal(got, []ev{{2, 20}, {3, 30}}) {
		t.Fatalf("contents = %v", got)
	}
	if r.Dropped() != 1 {
		t.Fatalf("dropped = %d, want 1", r.Dropped())
	}
}

func TestNewRejectsZeroBound(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(0) did not panic")
		}
	}()
	New[int](0)
}

func TestPushSteadyStateZeroAlloc(t *testing.T) {
	r := New[int](64)
	for i := 0; i < 64; i++ {
		r.Push(i)
	}
	if n := testing.AllocsPerRun(1000, func() { r.Push(1) }); n != 0 {
		t.Fatalf("Push on a full ring allocates %.1f/op", n)
	}
}
