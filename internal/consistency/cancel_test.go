package consistency

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"repro/internal/constraint"
	"repro/internal/dtd"
)

func TestCheckContextCanceled(t *testing.T) {
	d := dtd.MustParse(geoDTD)
	set := constraint.MustParseSet(geoConstraints)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := CheckContext(ctx, d, set, Options{})
	if err == nil {
		t.Fatalf("CheckContext with canceled context returned a verdict, want abort error")
	}
	if !Aborted(err) {
		t.Fatalf("Aborted(%v) = false", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("errors.Is(%v, context.Canceled) = false", err)
	}
}

// TestCheckContextCanceledScopes cancels a check that reaches the scope
// executor: the lint prepass is skipped, so the deep chain's scopes
// run inline at pool size 1, and at pool size 8 each node either gives
// up at the slot gate or aborts inside the solver. Both must abort,
// and the pool must leave no goroutine behind.
func TestCheckContextCanceledScopes(t *testing.T) {
	d := dtd.MustParse(deepDTD)
	set := constraint.MustParseSet(deepConstraints)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	baseline := runtime.NumGoroutine()
	for _, workers := range []int{1, 8} {
		_, err := CheckContext(ctx, d, set, Options{SkipLint: true, Parallelism: workers})
		var abort *AbortError
		if !errors.As(err, &abort) {
			t.Fatalf("parallel=%d: err = %v, want *AbortError", workers, err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines = %d after the canceled checks, baseline %d", runtime.NumGoroutine(), baseline)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestCheckContextLive(t *testing.T) {
	// A live context must not change the verdict.
	d := dtd.MustParse(geoDTD)
	set := constraint.MustParseSet(geoConstraints)
	res, err := CheckContext(context.Background(), d, set, Options{})
	if err != nil {
		t.Fatalf("CheckContext: %v", err)
	}
	if res.Verdict != Inconsistent {
		t.Fatalf("verdict = %v, want Inconsistent", res.Verdict)
	}
}

func TestAbortErrorUnwrap(t *testing.T) {
	err := &AbortError{Err: context.DeadlineExceeded}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("AbortError does not unwrap to its cause")
	}
	if !Aborted(err) {
		t.Fatalf("Aborted(AbortError) = false")
	}
	if Aborted(errors.New("other")) {
		t.Fatalf("Aborted(plain error) = true")
	}
	if Aborted(nil) {
		t.Fatalf("Aborted(nil) = true")
	}
}
