package main

import (
	"strings"
	"testing"
	"time"
)

func TestValidatorPassesGoodFlags(t *testing.T) {
	var v Validator
	v.NonNegativeInt("workers", 0)
	v.NonNegativeDuration("drain-timeout", 15*time.Second)
	if got := v.MiB("cache-mb", 64); got != 64<<20 {
		t.Errorf("MiB(64) = %d bytes, want %d", got, 64<<20)
	}
	if got := v.MiB("cache-mb", 1<<43-1); got != (1<<43-1)<<20 {
		t.Errorf("MiB at the int64 limit = %d bytes", got)
	}
	if err := v.Err(); err != nil {
		t.Errorf("valid flags rejected: %v", err)
	}
}

func TestValidatorCollectsEveryFailure(t *testing.T) {
	var v Validator
	v.NonNegativeInt("workers", -1)
	v.NonNegativeDuration("drain-timeout", -time.Second)
	v.MiB("cache-mb", -1)
	err := v.Err()
	if err == nil {
		t.Fatal("all-bad flags accepted")
	}
	for _, want := range []string{"-workers", "-drain-timeout", "-cache-mb"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error drops %s: %v", want, err)
		}
	}
}

// TestValidatorRejectsCacheMBOverflow: a MiB budget whose byte count
// overflows int64 used to wrap to a non-positive budget, which silently
// turned the result cache off. It must be a usage error instead.
func TestValidatorRejectsCacheMBOverflow(t *testing.T) {
	for _, mib := range []int64{1 << 43, 8796093022208, 1<<63 - 1} {
		var v Validator
		if got := v.MiB("cache-mb", mib); got != 0 {
			t.Errorf("MiB(%d) = %d bytes, want 0 on failure", mib, got)
		}
		if err := v.Err(); err == nil || !strings.Contains(err.Error(), "-cache-mb") {
			t.Errorf("-cache-mb %d accepted (err %v)", mib, err)
		}
	}
}
