from .config import ModelConfig, toy_config
from .params import ParamStore, build_params, GROUPS
from .model import DocModel, VARIANTS
