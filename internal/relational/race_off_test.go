//go:build !race

package relational

const raceEnabled = false
