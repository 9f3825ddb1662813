package ann

import "repro/internal/obs"

// epochSpan times each MLP training epoch.
var epochSpan = obs.TrainSpan("ann_epoch", "one MLP training epoch")
