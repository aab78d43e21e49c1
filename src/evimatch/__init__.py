"""Cross-modal local features: event streams matched against frames.

The package follows one pipeline: event windows are rasterized into dense
tensors, a small convolutional extractor (distilled from an analytic image
teacher) turns them into score/descriptor maps, keypoints are pulled out by
deterministic non-maximum suppression, and matches against image keypoints
come from either a dual-softmax mutual-nearest-neighbor rule or a trained
attention matcher.  Synthetic scenes with exact ground truth close the loop
for training and for relative-pose evaluation.
"""
