//go:build race

package relational

// raceEnabled mirrors internal/serve's convention: allocation-count tests
// skip under the race detector, whose instrumentation allocates.
const raceEnabled = true
