package main

import (
	"fmt"
	"math"
	"strings"
	"time"
)

// Validator accumulates flag-validation failures so main can check every
// flag up front and report all problems in one usage message instead of
// dying on the first bad input.
type Validator struct {
	errs []string
}

func (v *Validator) failf(format string, args ...any) {
	v.errs = append(v.errs, fmt.Sprintf(format, args...))
}

// NonNegativeInt requires flag `name` to be >= 0.
func (v *Validator) NonNegativeInt(name string, val int) {
	if val < 0 {
		v.failf("-%s must not be negative, got %d", name, val)
	}
}

// NonNegativeDuration requires flag `name` to be >= 0.
func (v *Validator) NonNegativeDuration(name string, d time.Duration) {
	if d < 0 {
		v.failf("-%s must not be negative, got %v", name, d)
	}
}

// MiB requires flag `name`, a size in MiB, to be >= 0 and small enough
// that its byte count fits in an int64, and returns that byte count (0
// when the check fails).
func (v *Validator) MiB(name string, mib int64) int64 {
	switch {
	case mib < 0:
		v.failf("-%s must not be negative, got %d", name, mib)
	case mib > math.MaxInt64>>20:
		v.failf("-%s must be at most %d, got %d", name, int64(math.MaxInt64>>20), mib)
	default:
		return mib << 20
	}
	return 0
}

// Err returns nil when every check passed, or one error listing every
// recorded failure, one per line, ready to print above the flag usage.
func (v *Validator) Err() error {
	if len(v.errs) == 0 {
		return nil
	}
	return fmt.Errorf("invalid flags:\n  %s", strings.Join(v.errs, "\n  "))
}
