"""Physical constants shared across the package."""

__all__ = ["SPEED_OF_LIGHT_M_S"]

SPEED_OF_LIGHT_M_S = 299_792_458.0
