package client

import (
	"errors"
	"math"
	"math/rand"
	"time"
)

// Backoff computes retry delays for resubmitting against an overloaded or
// flaky server: capped exponential growth with proportional jitter, with
// an explicit server Retry-After hint taking precedence over the schedule
// when one is present. The zero value is ready to use (50ms base, 2s cap,
// factor 2, 20% jitter with no source — i.e. jitter disabled).
//
// Determinism: Delay draws jitter only from Rand. With Rand nil the
// schedule is exactly reproducible; with a seeded source two Backoffs
// constructed the same way produce identical delay sequences, which is how
// the fleet tests pin retry timing. A Backoff with a Rand is NOT safe for
// concurrent use — give each worker its own (the coordinator derives one
// per backend from its seed).
type Backoff struct {
	// Base is the delay before the first retry (0 selects 50ms).
	Base time.Duration
	// Max caps the computed schedule (0 selects 2s). A server hint above
	// Max is honored anyway: the server knows its own drain better.
	Max time.Duration
	// Factor is the per-attempt growth (values < 1 select 2).
	Factor float64
	// Jitter spreads each delay by ±Jitter fraction (0 selects 0.2;
	// negative disables). Applied only when Rand is set.
	Jitter float64
	// Rand is the jitter source; nil disables jitter entirely.
	Rand *rand.Rand
}

// Delay returns the wait before retry number attempt (1 = first retry;
// values < 1 are treated as 1). hint is the server's Retry-After (zero
// when the response carried none); a positive hint replaces the
// exponential schedule for this attempt, jittered the same way so herds
// of clients given the same hint still spread out.
func (b *Backoff) Delay(attempt int, hint time.Duration) time.Duration {
	base := b.Base
	if base <= 0 {
		base = 50 * time.Millisecond
	}
	max := b.Max
	if max <= 0 {
		max = 2 * time.Second
	}
	factor := b.Factor
	if factor < 1 {
		factor = 2
	}
	var d time.Duration
	if hint > 0 {
		d = hint
	} else {
		d = base
		for i := 1; i < attempt && d < max; i++ {
			d = scaleDuration(d, factor)
		}
		if d > max {
			d = max
		}
	}
	jitter := b.Jitter
	if jitter == 0 {
		jitter = 0.2
	}
	if jitter > 0 && b.Rand != nil {
		// Uniform in [1-jitter, 1+jitter); clamp at zero for jitter >= 1.
		scale := 1 + jitter*(2*b.Rand.Float64()-1)
		if scale < 0 {
			scale = 0
		}
		d = scaleDuration(d, scale)
	}
	return d
}

// scaleDuration returns d*f, saturating at the largest Duration: a
// far-future Retry-After parses to that maximum, and converting a product
// past it wraps negative, which would turn the longest wait into none.
func scaleDuration(d time.Duration, f float64) time.Duration {
	if x := float64(d) * f; x < math.MaxInt64 {
		return time.Duration(x)
	}
	return math.MaxInt64
}

// RetryAfterHint extracts the server's Retry-After from an error chain:
// the *APIError's RetryAfter when err wraps one, zero otherwise. Feed it
// straight into Delay.
func RetryAfterHint(err error) time.Duration {
	var apiErr *APIError
	if errors.As(err, &apiErr) {
		return apiErr.RetryAfter
	}
	return 0
}
