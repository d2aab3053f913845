package core

// The package's own test helpers, for the tests in package core_test:
// those import the cross-mode harness, which imports core.
var (
	CompileT     = compileT
	SnapshotKey  = snapshotKey
	OptionCombos = optionCombos
	ComboName    = comboName
	Update       = update
)

const (
	StencilSrc  = stencilSrc
	RaceEnabled = raceEnabled
)
