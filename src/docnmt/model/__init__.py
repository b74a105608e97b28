from .config import ModelConfig
from .params import ParamStore, build_params, GROUPS
from .model import DocModel, VARIANTS
