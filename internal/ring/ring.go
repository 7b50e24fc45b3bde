// Package ring is the one bounded FIFO behind every event buffer in the
// telemetry layer: the tracer, the span store, the flight recorder, the
// EventBus's topic and subscriber buffers and the histogram window.
//
// A Ring holds at most its bound. The bound is not a preallocation:
// storage starts empty and grows on demand, so a ring that is sized
// for a long run but sees seven events costs eight slots. When the ring
// is full, a push overwrites the oldest element and counts the loss, so
// every owner reports drops the same way.
//
// A Ring has no lock of its own; its owner serializes access.
package ring

// minGrow is the first storage size a ring allocates.
const minGrow = 8

// Ring is a bounded FIFO that overwrites its oldest element when full.
// The zero value is unusable; build one with New.
type Ring[T any] struct {
	buf     []T
	head    int // index of the oldest element in buf
	n       int // elements held
	bound   int
	dropped uint64
}

// New returns an empty ring holding at most bound elements. It
// allocates no element storage. It panics if bound < 1.
func New[T any](bound int) Ring[T] {
	if bound < 1 {
		panic("ring: bound must be at least 1")
	}
	return Ring[T]{bound: bound}
}

// Len returns the number of elements held.
func (r *Ring[T]) Len() int { return r.n }

// Cap returns the bound: the most elements the ring will hold. It does
// not change as storage grows.
func (r *Ring[T]) Cap() int { return r.bound }

// Dropped returns how many elements pushes have overwritten.
func (r *Ring[T]) Dropped() uint64 { return r.dropped }

// Push appends v, overwriting the oldest element when the ring is full.
func (r *Ring[T]) Push(v T) { *r.PushSlot() = v }

// PushSlot appends one element and returns its slot for the caller to
// fill in place, overwriting the oldest element when the ring is full.
// The slot may hold a stale element: the caller must set every field.
// The pointer is valid until the ring next changes.
func (r *Ring[T]) PushSlot() *T {
	if r.n == r.bound {
		slot := &r.buf[r.head]
		r.head = r.wrap(r.head + 1)
		r.dropped++
		return slot
	}
	if r.n == len(r.buf) {
		r.grow()
	}
	r.n++
	return &r.buf[r.wrap(r.head+r.n-1)]
}

// PopFront removes and returns the oldest element; false when empty.
func (r *Ring[T]) PopFront() (T, bool) {
	var zero T
	if r.n == 0 {
		return zero, false
	}
	v := r.buf[r.head]
	r.buf[r.head] = zero // release what the element references
	r.head = r.wrap(r.head + 1)
	r.n--
	return v, true
}

// Front returns the oldest element without removing it; false when
// empty.
func (r *Ring[T]) Front() (T, bool) {
	if r.n == 0 {
		var zero T
		return zero, false
	}
	return r.buf[r.head], true
}

// Append appends the held elements for which keep returns true (all of
// them when keep is nil) to dst, oldest first, and returns the
// extended slice.
func (r *Ring[T]) Append(dst []T, keep func(*T) bool) []T {
	for i := 0; i < r.n; i++ {
		v := &r.buf[r.wrap(r.head+i)]
		if keep == nil || keep(v) {
			dst = append(dst, *v)
		}
	}
	return dst
}

// wrap maps a logical position in [0, 2*len(buf)) onto buf.
func (r *Ring[T]) wrap(i int) int {
	if i >= len(r.buf) {
		i -= len(r.buf)
	}
	return i
}

// grow doubles the storage, capped at the bound, and unwraps the held
// elements to the front of it.
func (r *Ring[T]) grow() {
	size := max(2*len(r.buf), minGrow)
	size = min(size, r.bound)
	buf := make([]T, size)
	n := copy(buf, r.buf[r.head:])
	copy(buf[n:], r.buf[:r.head])
	r.buf = buf
	r.head = 0
}
