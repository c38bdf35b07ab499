package refs

// PairsReference exposes the quadratic oracle to the external tests
// (pairs_test.go), which live in package refs_test to break the
// refs ← workload import cycle.
var PairsReference = pairsReference
