package core

// Test graph builders for the external core_test package, whose tests
// also drive packages that import core (degrade).
var (
	Chain       = chain
	Star        = star
	RandomTrace = randomTrace
)
