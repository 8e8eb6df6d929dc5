// Command app refers to what non-test code uses.
package main

import (
	"fixture/internal/core"
	"fixture/internal/lib"
)

func main() {
	lib.Used()
	_ = lib.NewReader()
	_ = core.Config{Set: 1}
}
