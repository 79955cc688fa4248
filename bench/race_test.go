//go:build race

package main

// raceEnabled reports whether the race detector is active. The smoke
// then runs only the workloads that are cheap or have more than one
// goroutine: the 10k-node ones are single-goroutine simulator runs that
// take minutes under the detector and have nothing for it to find.
const raceEnabled = true
