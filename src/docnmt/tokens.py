"""Reserved vocabulary ids shared across corpus, model and decoding."""

PAD_ID = 0
UNK_ID = 1
BOS_ID = 2
EOS_ID = 3

PAD, UNK, BOS, EOS = "<pad>", "<unk>", "<bos>", "<eos>"
RESERVED = (PAD, UNK, BOS, EOS)
