// Calendar-queue event list (Brown, "Calendar Queues: A Fast O(1) Priority
// Queue Implementation for the Simulation Event Set Problem", CACM 1988),
// the alternative Kernel backend for large event populations.
//
// Events hash into buckets by the "year" of their timestamp — the integer
// quotient year(t) = floor(t * invWidth) — with bucket index year masked by
// the power-of-two bucket count. Each bucket is an intrusive doubly-linked
// list threaded through the events themselves, so enqueue is a list prepend,
// dequeue is an unlink, and a resize rehash moves pointers without touching
// the allocator — the only allocation the calendar ever makes is the
// bucket-head array itself. Both operations are amortized O(1) when the
// bucket width tracks the mean inter-event gap, which the deterministic
// resize policy maintains.
//
// Correctness does not depend on the geometry at all: the kernel order
// (time, priority, seq) is a total order, so the pop sequence — and with
// it the simulation trajectory — is identical to the binary heap's for any
// bucket count, width, or within-bucket list order. Year matching is exact
// (ev.calN == n, computed by the same quotient on both sides), so no float
// boundary can place an event outside the scan window that should contain
// it.
package des

import (
	"math"
	"math/bits"
)

const (
	// calMinBuckets is the initial and minimum bucket count; resizing
	// doubles and halves from here (always a power of two) with 4x
	// hysteresis between the grow and shrink thresholds.
	calMinBuckets = 32
	// calInitialWidth is the bucket width before the first resize has any
	// real inter-event spacing to measure.
	calInitialWidth = 1.0
	// calWidthFactor scales the mean inter-event gap into the bucket
	// width: a year holds this many events on average. Below 1 most
	// years are empty, but with bucket stepping reduced to a mask-and-
	// range, short findMin hops over empty years are cheaper than
	// filtering multi-event buckets (measured on the depth-64
	// exponential-churn benchmark; 0.25, 1.0 and 2.0 are all slower).
	calWidthFactor = 0.5
)

// calMaxYear clamps the year index so that +Inf, NaN, and absurdly large
// timestamps all land in one final year instead of overflowing int64. The
// quotient is monotone in t, so clamping preserves the scan order: every
// clamped event times after every unclamped one.
const calMaxYear = int64(1) << 62

type calendar struct {
	// buckets holds the head of each bucket's intrusive list (nil when the
	// bucket is empty); events thread on their calNext/calPrev fields.
	buckets []*Event
	// occ is the bucket-occupancy bitmap (bit b set iff buckets[b] is
	// non-nil): findMin's scan hops over runs of empty years with one
	// trailing-zeros count instead of probing them bucket by bucket.
	occ   []uint64
	mask  int64 // len(buckets)-1; bucket index is calN & mask
	width float64
	// invWidth is 1/width: the year quotient is computed by
	// multiplication, which is several times cheaper than division on the
	// per-push path. Any monotone quotient works (see package comment),
	// so the rounding difference vs true division is irrelevant.
	invWidth float64
	count    int
	// head caches the queue minimum so NextTime — which the SAN run loop
	// reads every iteration — is a single pointer load.
	head *Event
}

func newCalendar() *calendar {
	return &calendar{
		buckets:  make([]*Event, calMinBuckets),
		occ:      make([]uint64, occWords(calMinBuckets)),
		mask:     calMinBuckets - 1,
		width:    calInitialWidth,
		invWidth: 1 / calInitialWidth,
	}
}

// occWords returns the occupancy-bitmap length for nb buckets: one word up
// to 64 buckets, then one word per 64 (nb is always a power of two).
func occWords(nb int) int {
	if nb <= 64 {
		return 1
	}
	return nb / 64
}

// year maps a timestamp to its bucket-year index under the current width.
func (c *calendar) year(t float64) int64 {
	y := t * c.invWidth
	if !(y < float64(calMaxYear)) { // also catches +Inf and NaN
		return calMaxYear
	}
	if y < 0 {
		return 0
	}
	return int64(y)
}

// link inserts ev into bucket b, keeping the bucket list sorted under the
// (time, priority, seq) total order. The sort buys findMin its O(1) year
// probe — the bucket head is always the bucket minimum, so a single calN
// compare answers "does year n live here and what is its min" — at the
// cost of an insertion walk, which is short because the resize policy
// keeps buckets near one event each. The within-bucket order never reaches
// the pop sequence (that is fixed by the total order); it is purely a
// lookup structure.
func (c *calendar) link(ev *Event, b int64) {
	ev.bucket = int32(b)
	head := c.buckets[b]
	if head == nil || eventLess(ev, head) {
		ev.calNext = head
		c.buckets[b] = ev
		c.occ[b>>6] |= 1 << uint(b&63)
		return
	}
	cur := head
	for cur.calNext != nil && eventLess(cur.calNext, ev) {
		cur = cur.calNext
	}
	ev.calNext = cur.calNext
	cur.calNext = ev
}

func (c *calendar) push(ev *Event) {
	n := c.year(ev.time)
	ev.calN = n
	c.link(ev, n&c.mask)
	ev.index = 0 // queued marker; position lives in the links
	c.count++
	if c.head == nil || eventLess(ev, c.head) {
		c.head = ev
	}
	if 2*c.count > len(c.buckets) {
		c.resize(2 * len(c.buckets))
	}
}

// remove unlinks a queued event (a cancelled event, or the head through
// pop's slow path) from its bucket list, and re-derives the cached head
// when the minimum itself left. Singly-linked buckets mean a predecessor
// walk, but buckets hold about one event, and cancellations are far rarer
// than pops — which bypass the walk entirely (the head leads its bucket).
func (c *calendar) remove(ev *Event) {
	b := ev.bucket
	if head := c.buckets[b]; head == ev {
		c.buckets[b] = ev.calNext
		if ev.calNext == nil {
			c.occ[b>>6] &^= 1 << uint(b&63)
		}
	} else {
		prev := head
		for prev.calNext != ev {
			prev = prev.calNext
		}
		prev.calNext = ev.calNext
	}
	ev.calNext = nil
	ev.index = -1
	c.count--
	if ev == c.head {
		// Every remaining event has calN >= the departing minimum's, so
		// its year is a valid scan start.
		c.head = c.findMin(ev.calN)
	}
	if nb := len(c.buckets); nb > calMinBuckets && c.count < nb/8 {
		c.resize(nb / 2)
	}
}

// pop removes and returns the minimum event. The cached head is always
// the head of its own bucket (sorted buckets put each bucket's minimum
// first), so the unlink is branch-free; and when its bucket successor
// shares its year, that successor is the new global minimum — the rest of
// year n sorts behind it and every other event is in a later year — so
// the findMin scan is skipped outright.
func (c *calendar) pop() *Event {
	head := c.head
	b := head.bucket
	next := head.calNext
	c.buckets[b] = next
	if next == nil {
		c.occ[b>>6] &^= 1 << uint(b&63)
	}
	head.calNext = nil
	head.index = -1
	c.count--
	if next != nil && next.calN == head.calN {
		c.head = next
	} else {
		c.head = c.findMin(head.calN)
	}
	if nb := len(c.buckets); nb > calMinBuckets && c.count < nb/8 {
		c.resize(nb / 2)
	}
	return head
}

// nextTime mirrors Kernel.NextTime for the calendar backend.
func (c *calendar) nextTime() float64 {
	if c.head == nil {
		return math.Inf(1)
	}
	return c.head.time
}

// findMin scans years upward from `from` for the earliest queued event.
// Each year's candidates live in bucket n&mask; the first non-empty year
// holds the global minimum because later years hold strictly later
// timestamps. Two structural facts make each probe O(1): years whose
// bucket is empty hold nothing themselves, so the occupancy bitmap
// collapses every run of empty years into a single trailing-zeros jump;
// and buckets are sorted, so the bucket head is the bucket minimum — if
// its year is n it is year n's minimum, and if not, year n is empty in
// this bucket (every event ordered before a later-year head would itself
// be the head, and earlier years cannot appear: a bucket only holds years
// congruent to its index mod nb, and the scan window spans fewer than nb
// years past `from`, below which no event exists). A full wrap without a
// hit means the queue is sparse relative to the year range, so fall back
// to a direct scan of the bucket heads.
func (c *calendar) findMin(from int64) *Event {
	if c.count == 0 {
		return nil
	}
	n := from
	idx := n & c.mask
	for remaining := int64(len(c.buckets)); remaining > 0; {
		d := c.nextOccupied(idx)
		if d >= remaining {
			break
		}
		n += d
		idx = (idx + d) & c.mask
		remaining -= d
		if head := c.buckets[idx]; head.calN == n {
			return head
		}
		n++
		idx = (idx + 1) & c.mask
		remaining--
	}
	return c.direct()
}

// nextOccupied returns the wrapping distance from bucket idx to the nearest
// occupied bucket (0 when idx itself is occupied). The caller guarantees
// count > 0, so some occupancy bit is always set.
func (c *calendar) nextOccupied(idx int64) int64 {
	occ := c.occ
	if len(occ) == 1 {
		// Up to 64 buckets: split the wrap-around search into "at or after
		// idx" and "wrapped to the bottom", each one trailing-zeros count.
		w := occ[0]
		if x := w >> uint(idx); x != 0 {
			return int64(bits.TrailingZeros64(x))
		}
		return int64(len(c.buckets)) - idx + int64(bits.TrailingZeros64(w))
	}
	nb := int64(len(c.buckets))
	for off := int64(0); off < nb; {
		i := (idx + off) & c.mask
		bit := uint(i & 63)
		if x := occ[i>>6] >> bit; x != 0 {
			return off + int64(bits.TrailingZeros64(x))
		}
		off += 64 - int64(bit)
	}
	return nb
}

// direct is the sparse-queue fallback: a minimum scan over the bucket
// heads (sorted buckets put each bucket's minimum at its head).
func (c *calendar) direct() *Event {
	var best *Event
	for _, head := range c.buckets {
		if head != nil && (best == nil || eventLess(head, best)) {
			best = head
		}
	}
	return best
}

// resize rehashes every queued event into newNb buckets, recomputing the
// width from the queued span. Rehashing relinks the intrusive lists in
// place; the new bucket-head array is the single allocation. The policy is
// fully deterministic (count thresholds and timestamps only — no sampling,
// no randomness), so two kernels fed the same schedule always share the
// same geometry history.
func (c *calendar) resize(newNb int) {
	old := c.buckets
	minT, maxT := math.Inf(1), math.Inf(-1)
	for _, head := range old {
		for ev := head; ev != nil; ev = ev.calNext {
			if ev.time < minT {
				minT = ev.time
			}
			if ev.time > maxT {
				maxT = ev.time
			}
		}
	}
	width := calInitialWidth
	if c.count > 1 {
		if span := maxT - minT; span > 0 && !math.IsInf(span, 0) {
			width = calWidthFactor * span / float64(c.count)
		}
	}
	c.width = width
	c.invWidth = 1 / width
	c.buckets = make([]*Event, newNb)
	if w := occWords(newNb); w == len(c.occ) {
		clear(c.occ)
	} else {
		c.occ = make([]uint64, w)
	}
	c.mask = int64(newNb) - 1
	for _, head := range old {
		ev := head
		for ev != nil {
			next := ev.calNext
			n := c.year(ev.time)
			ev.calN = n
			c.link(ev, n&c.mask)
			ev = next
		}
	}
}

// reset empties every bucket without touching the geometry: bucket count
// and width persist as a warm start for the next replication. Geometry
// cannot influence the pop order (total order), so a reset calendar kernel
// remains trajectory-indistinguishable from a new one, and keeping it
// makes Reset allocation-free like the heap path.
func (c *calendar) reset() {
	for b, head := range c.buckets {
		for ev := head; ev != nil; {
			next := ev.calNext
			ev.index = -1
			ev.calNext = nil
			ev = next
		}
		c.buckets[b] = nil
	}
	clear(c.occ)
	c.count = 0
	c.head = nil
}
