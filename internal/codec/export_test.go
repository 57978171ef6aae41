package codec

// Controller exposes the encoder driver's rate controller (nil at
// constant Q) so the external tests can compare its state with a model's.
func (e *FrameEncoder) Controller() *RateController { return e.rc }
