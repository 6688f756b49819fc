//go:build !race

package main

// raceEnabled reports whether the binary was built with -race.
const raceEnabled = false
