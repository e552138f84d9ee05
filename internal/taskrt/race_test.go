//go:build race

package taskrt

func init() { raceEnabled = true }
