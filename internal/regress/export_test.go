package regress

// The external tests reach the references through these names.
var (
	RefFISTA     = refFISTA
	ObjectiveKKT = objectiveKKT
)
