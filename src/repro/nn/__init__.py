"""Neural-network substrate: numpy autodiff, layers, UNet, Adam."""

from . import dispatch, functional
from .conv import conv2d, max_pool2d, upsample2x
from .init import kaiming_normal
from .loss import mse_loss
from .modules import BatchNorm2d, Conv2d, Module, ReLU, Sequential
from .optim import Adam
from .serial import load_module, save_module
from .tensor import Tensor
from .unet import DoubleConv, UNet

__all__ = [
    "Adam",
    "BatchNorm2d",
    "Conv2d",
    "DoubleConv",
    "Module",
    "ReLU",
    "Sequential",
    "Tensor",
    "UNet",
    "conv2d",
    "dispatch",
    "functional",
    "kaiming_normal",
    "load_module",
    "max_pool2d",
    "mse_loss",
    "save_module",
    "upsample2x",
]
