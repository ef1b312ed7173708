package monitor

// The external cross-validation test reuses the stepper tests' mutators.
var (
	MutateDeqFresh = mutateDeqFresh
	MutateDeqEmpty = mutateDeqEmpty
)
