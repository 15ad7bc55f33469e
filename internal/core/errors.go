package core

import (
	"errors"
	"fmt"

	"repro/internal/sim"
)

// ErrBudgetExceeded matches any *BudgetError via errors.Is, regardless
// of cause.
var ErrBudgetExceeded = errors.New("core: budget exceeded")

// BudgetError reports that a run was aborted by its watchdog before the
// measurement window completed. Cause distinguishes the deterministic
// event budget ("events" — equal (Config, Seed) runs trip at the
// identical event) from the external interrupt hook ("interrupt" —
// wall-clock deadlines, context cancellation). Events and At snapshot
// the kernel when it stopped.
type BudgetError struct {
	Cause  string
	Events uint64
	At     sim.Time
}

// Budget-trip causes carried in BudgetError.Cause.
const (
	BudgetEvents    = "events"
	BudgetInterrupt = "interrupt"
)

func (e *BudgetError) Error() string {
	return fmt.Sprintf("core: %s budget exceeded after %d events at %v", e.Cause, e.Events, e.At)
}

// Is makes errors.Is(err, ErrBudgetExceeded) match any BudgetError.
func (e *BudgetError) Is(target error) bool { return target == ErrBudgetExceeded }

// budgetErr converts a kernel watchdog trip into the run's error; nil
// when the kernel ran to completion.
func budgetErr(k *sim.Kernel) error {
	switch k.Tripped() {
	case sim.TripEvents:
		return &BudgetError{Cause: BudgetEvents, Events: k.Executed(), At: k.Now()}
	case sim.TripInterrupt:
		return &BudgetError{Cause: BudgetInterrupt, Events: k.Executed(), At: k.Now()}
	}
	return nil
}
