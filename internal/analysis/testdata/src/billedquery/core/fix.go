// Package core exercises the billedquery rule inside an attack-path
// package (the path suffix "core" matches the rule's scope): victim query
// calls must be preceded, in the same function, by a budget increment.
package core

import "billedquery/retrieval"

type victim interface {
	Retrieve(q string, m int) []string
	RetrieveErr(q string, m int) ([]string, error)
	RetrieveBatch(qs []string, m int) [][]string
	RetrieveTraced(tc any, q string, m int) ([]string, error)
}

func positiveUnbilled(v victim) []string {
	return v.Retrieve("q", 5) // want `\[billedquery\] victim Retrieve call is not budget-billed`
}

func positiveInitIsNotBilling(v victim) []string {
	queries := 0 // initializing the meter does not charge it
	_ = queries
	return v.RetrieveBatch(nil, 5)[0] // want `\[billedquery\] victim RetrieveBatch call is not budget-billed`
}

func positiveClosureScope(v victim) func() []string {
	queries := 0
	queries++ // billing in the outer function does not license the closure
	_ = queries
	return func() []string {
		return v.Retrieve("q", 5) // want `\[billedquery\] victim Retrieve call is not budget-billed`
	}
}

func negativeBilled(v victim) ([]string, int) {
	queries := 0
	queries++
	return v.Retrieve("q", 5), queries
}

func negativeBilledBatch(v victim) ([][]string, int) {
	queries := 0
	queries += 2
	return v.RetrieveBatch(nil, 5), queries
}

func negativeBilledErr(v victim) ([]string, error) {
	telQueries := 0
	telQueries++
	_ = telQueries
	return v.RetrieveErr("q", 5)
}

func positiveUnbilledTraced(v victim) ([]string, error) {
	return v.RetrieveTraced(nil, "q", 5) // want `\[billedquery\] victim RetrieveTraced call is not budget-billed`
}

func negativeBilledTraced(v victim) ([]string, error) {
	queries := 0
	queries++
	_ = queries
	return v.RetrieveTraced(nil, "q", 5)
}

// retrieval.Query is how the attack loop reaches the victim: a call of it is
// a victim call like any Retrieve method; other functions of the package
// are not.

func positiveUnbilledQuery(v victim) ([]string, error) {
	return retrieval.Query(v, nil, "q", 5) // want `\[billedquery\] victim Query call is not budget-billed`
}

func negativeBilledQuery(v victim) ([]string, error) {
	queries := 0
	queries++
	_ = queries
	return retrieval.Query(v, nil, "q", 5)
}

func negativePackageHelper(v victim) []string {
	return retrieval.IDs(nil)
}

// oracle mirrors the optimizer harness shape: the victim and the billing
// meter live on the same struct, and billing charges a field, not a local.
type oracle struct {
	victim  victim
	queries int
}

func (o *oracle) negativeBilledField(q string) []string {
	o.queries++
	return o.victim.Retrieve(q, 5)
}

func (o *oracle) negativeBilledFieldPair(qs []string) [][]string {
	o.queries += 2
	return o.victim.RetrieveBatch(qs, 5)
}

func (o *oracle) positiveUnbilledField(q string) []string {
	return o.victim.Retrieve(q, 5) // want `\[billedquery\] victim Retrieve call is not budget-billed`
}

func (o *oracle) positiveRefundIsNotBilling(q string) []string {
	o.queries--                    // a shed refund decrements; it never licenses a new call
	return o.victim.Retrieve(q, 5) // want `\[billedquery\] victim Retrieve call is not budget-billed`
}

// The cases below separate the CFG every-path check from the lexical
// predecessor heuristic it replaced: billing must reach the call on EVERY
// path, not merely appear earlier in the source.

func positiveOneArmBilling(v victim, flag bool) []string {
	queries := 0
	if flag {
		queries++ // lexically before the call, but the else path never bills
	}
	_ = queries
	return v.Retrieve("q", 5) // want `\[billedquery\] victim Retrieve call is not budget-billed`
}

func negativeBothArmsBilling(v victim, flag bool) []string {
	queries := 0
	if flag {
		queries++
	} else {
		queries += 1
	}
	_ = queries
	return v.Retrieve("q", 5) // every path through the branch bills first
}

func positiveSwitchNoDefault(v victim, mode int) []string {
	queries := 0
	switch mode {
	case 0:
		queries++
	case 1:
		queries++
	}
	_ = queries
	return v.Retrieve("q", 5) // want `\[billedquery\] victim Retrieve call is not budget-billed`
}

func negativeSwitchWithDefault(v victim, mode int) []string {
	queries := 0
	switch mode {
	case 0:
		queries++
	default:
		queries += 1
	}
	_ = queries
	return v.Retrieve("q", 5) // all three paths (case, default) bill
}

func positiveZeroTripLoopBilling(v victim, qs []string) []string {
	queries := 0
	for range qs {
		queries++ // a zero-trip loop leaves the meter untouched
	}
	_ = queries
	return v.Retrieve("q", 5) // want `\[billedquery\] victim Retrieve call is not budget-billed`
}

func negativeBilledInLoop(v victim, qs []string) [][]string {
	queries := 0
	var out [][]string
	for _, q := range qs {
		queries++
		out = append(out, v.Retrieve(q, 5))
	}
	_ = queries
	return out
}
