//go:build race

package serve

func init() { raceDetector = true }
