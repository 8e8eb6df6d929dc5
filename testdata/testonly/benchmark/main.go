// Command benchmark is a module of its own whose imports resolve in the root
// module, as benchmark/ does.
package main

import "fixture/internal/lib"

func main() { lib.BenchOnly() }
