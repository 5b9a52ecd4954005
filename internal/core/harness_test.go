package core

// The crash-point harness, for the contextual engine's rows in package
// core_test: package ctxtune imports core, so its engine cannot be built
// in package core's own tests.
var (
	CrashAndRebuild = crashAndRebuild
	EngineAlgos     = engineAlgos
	EngineMeasure   = engineMeasure
)

// DurableEngine is the surface the crash-point harness drives.
type DurableEngine = durableEngine
