// Package retrieval stands in for internal/retrieval: its package-level
// Query is the dispatch function the attack path asks the victim through.
package retrieval

// Query mirrors retrieval.Query's shape closely enough for the rule: a
// package function whose path ends in "retrieval".
func Query(r any, tc any, q string, m int) ([]string, error) { return nil, nil }

// IDs is a package function that is not a victim call.
func IDs(rs []string) []string { return rs }
