package disk

import (
	"errors"
	"time"
)

// IsTransient reports whether err marks a failure a retry may clear. It
// walks the error chain for an implementation of `Transient() bool` (the
// convention fault-injecting and real backends use to classify their
// errors); permanent failures and plain errors report false.
func IsTransient(err error) bool {
	var t interface{ Transient() bool }
	return errors.As(err, &t) && t.Transient()
}

// The device retries a transiently failing backend read with backoff: up
// to retryAttempts tries, sleeping retryBackoff before the first retry and
// doubling it on each further one — enough to ride out sporadic transient
// faults without stretching a genuinely failing request. Only reads are
// retried: a read retry is idempotent and invisible in the I/O counters
// (which increment solely on success), while failed writes propagate so
// the request is reported instead of papered over.
const (
	retryAttempts = 4
	retryBackoff  = 50 * time.Microsecond
)

// Retries returns how many backend read retries the device has performed.
// The count is diagnostics, not a paper counter: it survives ResetStats
// and never feeds the reported statistics.
func (d *Disk) Retries() int64 { return d.retries }

// readBackend is backend.ReadAt behind the retry rule above: transient
// failures are retried with doubling backoff, anything else (or
// exhaustion) propagates.
func (d *Disk) readBackend(p []byte, off int) error {
	err := d.backend.ReadAt(p, off)
	backoff := retryBackoff
	for attempt := 1; err != nil && attempt < retryAttempts && IsTransient(err); attempt++ {
		time.Sleep(backoff)
		backoff *= 2
		d.retries++
		err = d.backend.ReadAt(p, off)
	}
	return err
}

// unwrapBackend peels one wrapping layer (fault injection, future
// instrumentation) off b. Wrappers advertise themselves by an
// `Unwrap() Backend` method, mirroring errors.Unwrap.
func unwrapBackend(b Backend) (Backend, bool) {
	u, ok := b.(interface{ Unwrap() Backend })
	if !ok {
		return nil, false
	}
	return u.Unwrap(), true
}

// under finds the backend that is a T — a concrete backend type or an
// optional capability — under any stack of wrappers.
func under[T any](b Backend) (T, bool) {
	for b != nil {
		if t, ok := b.(T); ok {
			return t, true
		}
		inner, ok := unwrapBackend(b)
		if !ok {
			break
		}
		b = inner
	}
	var zero T
	return zero, false
}

// asCOW finds the copy-on-write backend under any stack of wrappers.
func asCOW(b Backend) (*cowBackend, bool) { return under[*cowBackend](b) }
