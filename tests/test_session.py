"""The shared SparkSession's settings."""
import pytest

pytestmark = pytest.mark.spark


def test_console_progress_is_off(spark):
    """A job whose stderr goes to a file gets no ``[Stage …]`` bars."""
    conf = spark.sparkContext.getConf()
    assert conf.get("spark.ui.showConsoleProgress") == "false"
