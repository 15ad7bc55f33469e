package core

// SetReferenceHandOffs switches the runs that start after it to
// complete every hand-off through its event (or back).
func SetReferenceHandOffs(on bool) { referenceHandOffs = on }
