//go:build !race

package dfccl_test

// raceEnabled reports that the test binary was built with -race.
const raceEnabled = false
