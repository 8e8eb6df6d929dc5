// Package harness is test support: exempt as declarer and as referrer.
package harness

import "fixture/internal/lib"

// Drive reaches the seams.
func Drive() lib.HarnessOnly {
	lib.Seam()
	return lib.HarnessOnly{}
}
