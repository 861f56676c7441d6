package metrics

import (
	"math"
	"math/bits"
	"sync/atomic"
	"time"
)

// The histogram is log-linear ("HDR-style"): bucket 0 holds subCount
// unit-width sub-buckets for values 0..subCount-1, and every further
// bucket b >= 1 covers [subCount<<(b-1), subCount<<b) with subHalf
// sub-buckets of width 1<<b. The relative width of any bucket is at most
// 1/subHalf (~3.1% with subBits = 6), which bounds the quantile error to
// one bucket width without per-value precision bookkeeping.
const (
	subBits  = 6
	subCount = 1 << subBits // sub-buckets in the linear bucket 0
	subHalf  = subCount / 2 // sub-buckets in every log bucket

	// maxLogBucket is the largest bucket index b: bits.Len64 of a positive
	// int64 is at most 63, so b = len - subBits never exceeds 63-subBits.
	maxLogBucket = 63 - subBits

	// NumBuckets is the total sub-bucket (counter) count. The histogram
	// covers all of [0, math.MaxInt64] — values never saturate or clip.
	NumBuckets = subCount + maxLogBucket*subHalf
)

// bucketIndex maps a non-negative value to its counter slot.
func bucketIndex(v int64) int {
	if v < subCount {
		return int(v)
	}
	b := bits.Len64(uint64(v)) - subBits // log bucket, >= 1 since v >= subCount
	sub := int(v>>uint(b)) - subHalf     // 0..subHalf-1
	return subCount + (b-1)*subHalf + sub
}

// bucketLower returns the smallest value mapping to counter slot idx.
func bucketLower(idx int) int64 {
	if idx < subCount {
		return int64(idx)
	}
	rel := idx - subCount
	b := rel/subHalf + 1
	sub := rel%subHalf + subHalf
	return int64(sub) << uint(b)
}

// bucketWidth returns the value width of counter slot idx.
func bucketWidth(idx int) int64 {
	if idx < subCount {
		return 1
	}
	return 1 << uint((idx-subCount)/subHalf+1)
}

// Histogram is a fixed-bucket log-linear latency histogram safe for
// concurrent recording: Record is a handful of atomic adds on a
// preallocated counter array — no locks, no allocation — so request paths
// can record inline. Negative values clamp to zero; the bucket layout
// covers the whole int64 range, so nothing ever saturates. Use Snapshot
// to read (quantiles, merging); a snapshot taken during concurrent
// recording is weakly consistent (each counter is read atomically, but
// the set of counters is not one atomic cut).
//
// The zero value is NOT ready to use; call NewHistogram (Min tracking
// needs a sentinel).
type Histogram struct {
	counts [NumBuckets]atomic.Int64
	count  atomic.Int64
	sum    atomic.Int64
	min    atomic.Int64
	max    atomic.Int64
}

// NewHistogram returns an empty histogram ready for concurrent Record.
func NewHistogram() *Histogram {
	h := &Histogram{}
	h.min.Store(math.MaxInt64)
	return h
}

// Record adds one observation. Negative values count as zero. Safe for
// concurrent use; performs no allocation.
func (h *Histogram) Record(v int64) {
	if v < 0 {
		v = 0
	}
	h.counts[bucketIndex(v)].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
	for {
		cur := h.min.Load()
		if v >= cur || h.min.CompareAndSwap(cur, v) {
			break
		}
	}
	for {
		cur := h.max.Load()
		if v <= cur || h.max.CompareAndSwap(cur, v) {
			break
		}
	}
}

// Observe records a duration in nanoseconds (negative durations clamp to
// zero like Record).
func (h *Histogram) Observe(d time.Duration) { h.Record(int64(d)) }

// Snapshot copies the current counters into an immutable, mergeable
// snapshot.
func (h *Histogram) Snapshot() *Snapshot {
	s := &Snapshot{Min: h.min.Load(), Max: h.max.Load(), Sum: h.sum.Load()}
	for i := range h.counts {
		c := h.counts[i].Load()
		s.Counts[i] = c
		s.Count += c
	}
	if s.Count == 0 {
		s.Min, s.Max, s.Sum = 0, 0, 0
	}
	return s
}

// Snapshot is a point-in-time copy of a histogram: plain counters, no
// atomics. Snapshots merge (associatively and commutatively) and answer
// quantile queries; the zero value is an empty snapshot ready to Merge
// into.
type Snapshot struct {
	Counts [NumBuckets]int64
	Count  int64
	Sum    int64
	Min    int64
	Max    int64
}

// Merge folds o into s. Merging is associative and commutative: any
// merge order over a set of snapshots yields identical counters, so
// per-worker histograms can be combined in whatever order they finish.
func (s *Snapshot) Merge(o *Snapshot) {
	if o == nil || o.Count == 0 {
		return
	}
	if s.Count == 0 || o.Min < s.Min {
		s.Min = o.Min
	}
	if s.Count == 0 || o.Max > s.Max {
		s.Max = o.Max
	}
	for i, c := range o.Counts {
		s.Counts[i] += c
	}
	s.Count += o.Count
	s.Sum += o.Sum
}

// Quantile returns an estimate of the q-quantile (q in [0, 1]) of the
// recorded values: the upper edge of the bucket holding the rank-⌈q·n⌉
// observation, clamped to the recorded Max. The true value lies in the
// same bucket, so the estimate is within one bucket width (a relative
// error of at most 1/32 with the default layout). Returns 0 on an empty
// snapshot.
func (s *Snapshot) Quantile(q float64) int64 {
	if s.Count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := int64(math.Ceil(q * float64(s.Count)))
	if rank < 1 {
		rank = 1
	}
	var seen int64
	for i, c := range s.Counts {
		seen += c
		if seen >= rank {
			hi := bucketLower(i) + bucketWidth(i) - 1
			if hi > s.Max {
				hi = s.Max
			}
			if hi < s.Min {
				hi = s.Min
			}
			return hi
		}
	}
	return s.Max
}

// Mean returns the arithmetic mean of the recorded values (0 when empty).
// Unlike quantiles the mean is exact: Sum accumulates true values, not
// bucket edges.
func (s *Snapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return float64(s.Sum) / float64(s.Count)
}

// Summary is the JSON shape of one latency distribution, in microseconds
// (the unit of the server's elapsed fields). Both the server's /info
// metrics block and cobench's -report run report use it, so the two
// renderings of one histogram cannot drift apart.
type Summary struct {
	Count      int64   `json:"count"`
	MinMicros  int64   `json:"minMicros"`
	MeanMicros float64 `json:"meanMicros"`
	MaxMicros  int64   `json:"maxMicros"`
	P50Micros  int64   `json:"p50Micros"`
	P90Micros  int64   `json:"p90Micros"`
	P99Micros  int64   `json:"p99Micros"`
	P999Micros int64   `json:"p999Micros"`
}

// Summarize renders a snapshot of nanosecond observations as the standard
// microsecond summary (zero value for an empty snapshot).
func Summarize(s *Snapshot) Summary {
	if s == nil || s.Count == 0 {
		return Summary{}
	}
	const us = int64(time.Microsecond)
	return Summary{
		Count:      s.Count,
		MinMicros:  s.Min / us,
		MeanMicros: s.Mean() / float64(us),
		MaxMicros:  s.Max / us,
		P50Micros:  s.Quantile(0.50) / us,
		P90Micros:  s.Quantile(0.90) / us,
		P99Micros:  s.Quantile(0.99) / us,
		P999Micros: s.Quantile(0.999) / us,
	}
}
